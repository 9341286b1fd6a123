(* The measuring half of the repository benchmark (run.py is the other).

   One invocation runs one workload at one seed and prints, as the last
   line of stdout, a JSON object with the raw measurements: per-unit wall
   times, set-up times, the exact output counts, every failed check, and
   (with --trace 1) the per-layer numbers of the replay. run.py turns the
   raw samples into the reported medians and tails.

   Workloads (see README.md for why each exists):
   - store-cold: one unit = one cache-less CTO+LTBO+PlOpti(8) pass over
     the six evaluation apps (release mutants for seed > 0);
   - serve-warm: one unit = one request round trip to a calibrod child
     (one worker domain, one closed-loop client) over a pool of four
     Kuaishou release mutants, every timed request a memory-tier hit;
   - train-incr: one unit = one warm rebuild of a Wechat release-train
     version through an in-memory cache shared across the train.

   The traced run replays units by calling each layer's public functions
   from this file and records a span around every call; nothing inside
   lib/ is instrumented for it. *)

open Calibro_core
open Calibro_workload
module Dex_ir = Calibro_dex.Dex_ir
module Dex_text = Calibro_dex.Dex_text
module Dex_check = Calibro_dex.Dex_check
module Interp = Calibro_vm.Interp
module Oat_file = Calibro_oat.Oat_file
module Linker = Calibro_oat.Linker
module Cache = Calibro_cache.Cache
module Chash = Calibro_chash.Chash
module Clock = Calibro_obs.Clock
module Json = Calibro_obs.Json
module Obs = Calibro_obs.Obs
module Protocol = Calibro_server.Protocol
module Transport = Calibro_server.Transport
module Worker = Calibro_server.Worker
module Hgraph = Calibro_hgraph.Hgraph
module Passes = Calibro_hgraph.Passes
module Codegen = Calibro_codegen.Codegen
module Compiled_method = Calibro_codegen.Compiled_method
module Abi = Calibro_codegen.Abi
module Meta = Calibro_codegen.Meta
module Suffix_tree = Calibro_suffix_tree.Suffix_tree
module Oracle = Calibro_check.Oracle

(* ---- Command line ------------------------------------------------------- *)

let workload = ref ""
let seed = ref 0
let seconds = ref 10.0
let traced = ref false
let tiny = ref false
let calibrod = ref "_build/default/bin/calibrod.exe"
let digests_file = ref "bench/digests.txt"
let run_root = ref ".perfbench-run"

let spec =
  [ ("--workload", Arg.Set_string workload, "NAME store-cold|serve-warm|train-incr");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S timed phase length");
    ("--trace", Arg.Int (fun v -> traced := v <> 0), "0|1 traced replay run");
    ("--tiny", Arg.Set tiny, " smoke sizes: one pass, four requests, three deltas");
    ("--calibrod", Arg.Set_string calibrod, "PATH daemon executable");
    ("--digests", Arg.Set_string digests_file, "PATH committed text digests");
    ("--run-dir", Arg.Set_string run_root, "DIR scratch for sockets and caches") ]

(* The configuration every workload builds under; its text digests are
   the [CTO+LTBO+PlOpti(8)] rows of bench/digests.txt. *)
let config =
  List.find (fun (c : Config.t) -> c.Config.name = "CTO+LTBO+PlOpti(8)")
    (Config.matrix ())

(* ---- Small helpers ------------------------------------------------------ *)

let time f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.since_s t0)

let text_digest (oat : Oat_file.t) =
  Chash.to_hex (Chash.Md5.bytes oat.Oat_file.text)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB" (fun kb -> float_of_int kb /. 1024.0)
        else go ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) go

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> (try Unix.unlink path with Unix.Unix_error _ -> ())

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(* ---- Failure accounting ----------------------------------------------- *)

(* Every failed or refused unit, named by workload and unit id. A check
   that covers every unit (e.g. the VM replay of outputs all units share)
   fails each of them. *)
let failures : (int * string) list ref = ref []

let fail ~unit_id what =
  failures := (unit_id, what) :: !failures;
  Printf.printf "FAIL %s unit %d: %s\n%!" !workload unit_id what

let fail_all ~units what =
  for u = 0 to max 1 units - 1 do fail ~unit_id:u what done

(* ---- The timed loop ----------------------------------------------------- *)

(* Run units back to back until [seconds] have passed (at least
   [min_units], at most [max_units]); [f] gets the unit id and may set
   [stop]. *)
let timed_loop ?(min_units = 1) ?(max_units = max_int) ?(after = ignore) ~seconds f =
  let stop = ref false in
  let t0 = Clock.now_ns () in
  let out = ref [] and n = ref 0 in
  while
    (not !stop) && !n < max_units
    && (!n < min_units || Clock.since_s t0 < seconds)
  do
    let r, dt = time (fun () -> f ~stop !n) in
    out := (dt, r) :: !out;
    after !n;
    incr n
  done;
  List.rev !out

(* Peak RSS after a fixed amount of work ([k] units, or the whole run if
   it is shorter), so that a run doing more units in its [seconds] does
   not read a higher peak. [after] goes to {!timed_loop}. *)
let hwm_after ~k pid =
  let v = ref None in
  let after n = if n = k - 1 then v := Some (vm_hwm_mb pid) in
  let read () = match !v with Some x -> x | None -> vm_hwm_mb pid in
  (after, read)

(* ---- VM: script replay and the differential oracle ------------------- *)

type vm_stats = {
  v_cycles : int;  (** script replay on the outputs *)
  v_base_cycles : int;  (** script replay on the Baseline builds *)
  v_resident : int;  (** resident code bytes after the output replays *)
  v_oracle_insns : int;  (** retired by the oracle's runs, both builds *)
}

let script_calls (script : Appgen.script) =
  List.concat_map
    (fun (st : Appgen.script_step) ->
      List.init st.Appgen.sc_repeat (fun _ ->
          (st.Appgen.sc_method, st.Appgen.sc_args)))
    script

let run_script oat calls =
  let t = Interp.load oat in
  List.iter (fun (m, args) -> ignore (Interp.call t m args)) calls;
  t

(* The checks and VM numbers over a workload's outputs, each paired with
   the Baseline build of the same apk and the app's script:
   - the repository's differential oracle ({!Calibro_check.Oracle}: every
     entry method under its fixed argument shapes, one session per build,
     outcomes and log slices compared, no machine fault anywhere) — timed
     as [verify_s];
   - the app's script replayed on the output and on the Baseline build
     for cycles (Table 7) and resident code bytes (Table 5). *)
let check_outputs pairs =
  let verdicts = ref [] in
  let insns = ref 0 in
  let exec_s = ref 0.0 in
  (* [Oracle.run_calls], with the calls timed apart from [Interp.load] *)
  let run_calls ~fuel oat calls =
    let t = Interp.load ~fuel oat in
    let r, dt =
      time (fun () ->
          List.map
            (fun (c : Oracle.call) -> Interp.call_traced t c.Oracle.c_method c.Oracle.c_args)
            calls)
    in
    exec_s := !exec_s +. dt;
    (t, r)
  in
  let (), verify_s =
    time (fun () ->
        List.iter
          (fun (base, out, _) ->
            let calls = Oracle.default_calls base in
            let tb, rb = run_calls ~fuel:Oracle.default_baseline_fuel base calls in
            let fuel =
              Oracle.transformed_fuel
                ~baseline_retired:(Interp.instructions_retired tb)
            in
            let t, r = run_calls ~fuel out calls in
            insns :=
              !insns + Interp.instructions_retired tb + Interp.instructions_retired t;
            let base_faults =
              List.filter_map
                (function Interp.Fault f, _ -> Some ("baseline fault: " ^ f) | _ -> None)
                rb
            in
            let divs =
              Oracle.compare_runs ~config_name:config.Config.name ~calls rb r
              |> List.map Oracle.divergence_to_string
            in
            match base_faults @ divs with
            | [] -> ()
            | w :: _ ->
              verdicts := (out.Oat_file.apk_name ^ ": " ^ w) :: !verdicts)
          pairs)
  in
  let stats =
    List.fold_left
      (fun acc (base, out, script) ->
        let calls = script_calls script in
        let t = run_script out calls and tb = run_script base calls in
        { v_cycles = acc.v_cycles + Interp.cycles t;
          v_base_cycles = acc.v_base_cycles + Interp.cycles tb;
          v_resident = acc.v_resident + Interp.resident_code_bytes t;
          v_oracle_insns = acc.v_oracle_insns })
      { v_cycles = 0; v_base_cycles = 0; v_resident = 0; v_oracle_insns = !insns }
      pairs
  in
  (stats, List.rev !verdicts, [ ("verify_s", verify_s); ("verify_exec_s", !exec_s) ])

let vm_exact vm =
  [ ("cycles", vm.v_cycles); ("baseline_cycles", vm.v_base_cycles);
    ("resident_code_bytes", vm.v_resident);
    ("oracle_instructions", vm.v_oracle_insns) ]

(* ---- Committed digests -------------------------------------------------- *)

(* The [CTO+LTBO+PlOpti(8)] row of bench/digests.txt for each app. *)
let committed_digests () =
  match open_in !digests_file with
  | exception Sys_error e -> Error e
  | ic ->
    let rows = ref [] in
    (try
       while true do
         match
           String.split_on_char ' ' (input_line ic)
           |> List.filter (fun s -> s <> "")
         with
         | [ app; cfg; hex ] when cfg = config.Config.name ->
           rows := (app, hex) :: !rows
         | _ -> ()
       done
     with End_of_file -> close_in ic);
    Ok !rows

(* ---- Spans (traced run only) ------------------------------------------- *)

type span = {
  s_id : int;
  s_name : string;
  s_parent : int;  (** -1 at top level *)
  s_unit : int;
  s_start : int64;
  s_end : int64;
  s_alloc : float;  (** bytes allocated inside the call *)
  s_major : int;  (** major collections inside the call *)
}

let recorded : span list ref = ref []
let open_spans : int list ref = ref []
let next_span = ref 0
let cur_unit = ref 0

let allocated () =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* Side measurements (probes) are spans recorded outside a unit's
   ["unit"] root, so they never count as the unit's covered time. *)
let span name f =
  let id = !next_span in
  incr next_span;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let a0 = allocated () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = Clock.now_ns () in
  let close () =
    let t1 = Clock.now_ns () in
    let a1 = allocated () and m1 = (Gc.quick_stat ()).Gc.major_collections in
    open_spans := List.tl !open_spans;
    recorded :=
      { s_id = id; s_name = name; s_parent = parent; s_unit = !cur_unit;
        s_start = t0; s_end = t1; s_alloc = a1 -. a0;
        s_major = m1 - m0 }
      :: !recorded
  in
  match f () with
  | r ->
    close ();
    r
  | exception e ->
    close ();
    raise e

let dur_s s = Clock.elapsed_s s.s_start s.s_end

(* Per-unit counters the replay keeps itself. *)
type replay_counts = {
  mutable lookups : int;
  mutable hits : int;
  mutable stores : int;
  mutable compiled : int;
  mutable outlined : int;
  mutable replaced : int;
  mutable tree_nodes : int;
  mutable parsed_bytes : int;
  mutable detect_lookups : int;
  mutable detect_hits : int;
}

let counts : (int, replay_counts) Hashtbl.t = Hashtbl.create 64

let counts_of u =
  match Hashtbl.find_opt counts u with
  | Some c -> c
  | None ->
    let c =
      { lookups = 0; hits = 0; stores = 0; compiled = 0; outlined = 0;
        replaced = 0; tree_nodes = 0; parsed_bytes = 0; detect_lookups = 0;
        detect_hits = 0 }
    in
    Hashtbl.replace counts u c;
    c

(* One [Pipeline.build] under [config], re-enacted through the layers'
   public functions: check, per-method key + cache lookup (or HGraph, IR
   passes and codegen on a miss), PlOpti detection per group, rewrite,
   link. PlOpti's groups run sequentially here; the untraced build runs
   them on [Domain.recommended_domain_count () - 1] domains, which is one
   on a two-core host. Returns the OAT and the groups whose detection
   ran uncached (for the suffix-tree probe). *)
let replay_build ~cache (apk : Dex_ir.apk) =
  let c = counts_of !cur_unit in
  span "dex.check" (fun () ->
      match Dex_check.check apk with
      | Ok () -> ()
      | Error _ -> failwith "replay: Dex_check rejected the apk");
  let methods = Dex_ir.methods_of_apk apk in
  let slots = Hashtbl.create (List.length methods) in
  List.iteri (fun i (m : Dex_ir.meth) -> Hashtbl.replace slots m.Dex_ir.name i) methods;
  let slot_of_method n = Hashtbl.find slots n in
  let digests = Array.make (List.length methods) None in
  let compile_method m =
    c.compiled <- c.compiled + 1;
    let g = span "hgraph.of_method" (fun () -> Hgraph.of_method m) in
    if config.Config.optimize_ir then
      span "hgraph.optimize" (fun () -> ignore (Passes.optimize g));
    span "codegen.compile" (fun () ->
        Codegen.compile ~config:{ Codegen.cto = config.Config.cto }
          ~slot_of_method g)
  in
  let compiled =
    match cache with
    | None -> List.map compile_method methods
    | Some store ->
      List.mapi
        (fun i (m : Dex_ir.meth) ->
          let key =
            span "cache.key" (fun () ->
                Pipeline.method_key ~config ~slot_of_method
                  ~slot:(slot_of_method m.Dex_ir.name) m)
          in
          c.lookups <- c.lookups + 1;
          match span "cache.lookup" (fun () -> Cache.find_method store key) with
          | Some e ->
            c.hits <- c.hits + 1;
            digests.(i) <- Some e.Cache.ce_token_digest;
            e.Cache.ce_method
          | None ->
            let cm = compile_method m in
            c.stores <- c.stores + 1;
            span "cache.store" (fun () ->
                let d = Seq_map.method_digest cm in
                digests.(i) <- Some d;
                Cache.add_method store key
                  { Cache.ce_method = cm; ce_token_digest = d });
            cm)
        methods
  in
  let marr = Array.of_list compiled in
  let candidates =
    List.filter_map
      (fun (i, (cm : Compiled_method.t)) ->
        if Meta.outlinable cm.Compiled_method.meta then Some i else None)
      (List.mapi (fun i cm -> (i, cm)) compiled)
  in
  let groups = Parallel.partition ~k:config.Config.parallel_trees ~seed:42 candidates in
  let digest_of =
    Option.map
      (fun _ mi -> digests.(marr.(mi).Compiled_method.slot))
      cache
  in
  let options = Config.ltbo_options config in
  let hits () = Obs.Counter.value "cache.detect.hits" in
  let missed = ref [] in
  let detect_results =
    List.map
      (fun g ->
        let h0 = hits () in
        let r =
          span "ltbo.detect" (fun () ->
              Ltbo.detect ?cache ?digest_of ~options marr g)
        in
        if cache <> None then c.detect_lookups <- c.detect_lookups + 1;
        if hits () > h0 then c.detect_hits <- c.detect_hits + 1
        else missed := g :: !missed;
        r)
      groups
  in
  let result =
    span "ltbo.apply" (fun () -> Ltbo.run_with ~detect_results compiled)
  in
  c.outlined <- c.outlined + result.Ltbo.stats.Ltbo.s_outlined_functions;
  c.replaced <- c.replaced + result.Ltbo.stats.Ltbo.s_occurrences_replaced;
  let oat =
    span "oat.link" (fun () ->
        Linker.link ~apk_name:apk.Dex_ir.apk_name
          ~thunks:(if config.Config.cto then Abi.all_thunks else [])
          ~extra:result.Ltbo.outlined result.Ltbo.methods)
  in
  (oat, (marr, List.rev !missed))

(* The suffix trees detection built for the groups that missed the memo,
   rebuilt on the side to count their nodes (ltbo.detect's own tree
   build is inside its span). *)
let tree_probe (marr, groups) =
  let c = counts_of !cur_unit in
  List.iter
    (fun g ->
      let seq =
        span "suffix_tree.map" (fun () ->
            let a = Seq_map.new_allocator () in
            let vals =
              List.concat_map
                (fun mi ->
                  List.map fst (Seq_map.map_method marr.(mi) a)
                  @ [ Seq_map.fresh_sep a ])
                g
            in
            Array.of_list vals)
      in
      let t = span "suffix_tree.build" (fun () -> Suffix_tree.build seq) in
      c.tree_nodes <- c.tree_nodes + Suffix_tree.node_count t)
    groups

(* Replay an output's script in the VM under spans (the vm layer). *)
let vm_probe oat (script : Appgen.script) =
  let calls = script_calls script in
  let t = span "vm.load" (fun () -> Interp.load oat) in
  span "vm.call" (fun () ->
      List.iter (fun (m, args) -> ignore (Interp.call t m args)) calls);
  (Interp.instructions_retired t, Interp.cycles t)

(* ---- Per-layer report --------------------------------------------------- *)

(* [untraced_p50]: the same in-process work untraced, timed interleaved
   with the replays, so that [trace.overhead_s] compares like with like. *)
let layer_report ~untraced_p50 ~replay_ok ~extra () =
  let spans = List.rev !recorded in
  (* child time per span id *)
  let child = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.s_parent >= 0 then
        Hashtbl.replace child s.s_parent
          ((try Hashtbl.find child s.s_parent with Not_found -> 0.0)
          +. dur_s s))
    spans;
  let self s = dur_s s -. (try Hashtbl.find child s.s_id with Not_found -> 0.0) in
  let roots = List.filter (fun s -> s.s_name = "unit") spans in
  let units = List.map (fun s -> s.s_unit) roots in
  let per_unit name f =
    median
      (List.map
         (fun u ->
           List.fold_left
             (fun acc s -> if s.s_unit = u && s.s_name = name then acc +. f s else acc)
             0.0 spans)
         units)
  in
  let self_of name = per_unit name self in
  let probe_total name =
    List.fold_left
      (fun acc s -> if s.s_name = name then acc +. dur_s s else acc)
      0.0 spans
  in
  let count f = median (List.map (fun u -> float_of_int (f (counts_of u))) units) in
  let unit_wall = median (List.map dur_s roots) in
  let parse_s = self_of "dex.parse" in
  let parsed_mb = count (fun c -> c.parsed_bytes) /. 1048576.0 in
  let lookups = List.fold_left (fun a u -> a + (counts_of u).lookups) 0 units in
  let hits = List.fold_left (fun a u -> a + (counts_of u).hits) 0 units in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let total f = List.fold_left (fun a u -> a + f (counts_of u)) 0 units in
  let vm_s = probe_total "vm.load" +. probe_total "vm.call" in
  let base =
    [ ("dex.parse_s", parse_s);
      ("dex.parse_mb_per_s", if parse_s > 0.0 then parsed_mb /. parse_s else 0.0);
      ("dex.parse_alloc_mb", per_unit "dex.parse" (fun s -> s.s_alloc) /. 1048576.0);
      ("dex.check_s", self_of "dex.check");
      ("server.decode_request_s", self_of "server.decode_request");
      ("server.encode_response_s", self_of "server.encode_response");
      ("server.decode_response_s", self_of "server.decode_response");
      ("cache.key_s", self_of "cache.key");
      ("cache.lookup_s", self_of "cache.lookup" +. self_of "cache.store");
      ("cache.method_hit_ratio", ratio hits lookups);
      ("cache.method_stores", count (fun c -> c.stores));
      ( "cache.detect_hit_ratio",
        ratio (total (fun c -> c.detect_hits)) (total (fun c -> c.detect_lookups)) );
      ("hgraph.of_method_s", self_of "hgraph.of_method");
      ("hgraph.optimize_s", self_of "hgraph.optimize");
      ("codegen.compile_s", self_of "codegen.compile");
      ("codegen.methods_compiled", count (fun c -> c.compiled));
      ("ltbo.detect_s", self_of "ltbo.detect");
      ("ltbo.apply_s", self_of "ltbo.apply");
      ("ltbo.outlined_functions", count (fun c -> c.outlined));
      ("ltbo.occurrences_replaced", count (fun c -> c.replaced));
      ("suffix_tree.build_s", probe_total "suffix_tree.build");
      ("suffix_tree.nodes",
       float_of_int
         (List.fold_left (fun a u -> a + (counts_of u).tree_nodes) 0 units));
      ("oat.link_s", self_of "oat.link");
      ("oat.emit_s", self_of "oat.emit");
      ("gc.alloc_mb_per_unit", median (List.map (fun r -> r.s_alloc) roots) /. 1048576.0);
      ("gc.major_collections", median (List.map (fun r -> float_of_int r.s_major) roots));
      ("trace.untraced_p50_s", untraced_p50);
      ("trace.unit_s", unit_wall);
      ("trace.overhead_s", unit_wall -. untraced_p50);
      (* the share of a replayed unit that no layer span covers *)
      ("trace.unaccounted_share", median (List.map (fun r -> self r /. dur_s r) roots));
      ("trace.replay_digest_match", if replay_ok then 1.0 else 0.0);
      ("trace.replayed_units", float_of_int (List.length roots));
      (* measured by the serve-warm replay only; off the other paths *)
      ("dex.print_s", 0.0); ("server.app_digest_s", 0.0);
      ("server.build_response_s", 0.0); ("server.wire_s", 0.0) ]
  in
  let extra = extra ~vm_s in
  let base = List.filter (fun (k, _) -> not (List.mem_assoc k extra)) base in
  Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (base @ extra))

(* ---- Output ------------------------------------------------------------- *)

let emit ~setup ~units ~exact ~others ~layers =
  let failed =
    List.sort_uniq compare (List.map fst !failures) |> List.length
  in
  let attempted = max (List.length units) (max 1 failed) in
  let fields =
    [ ("workload", Json.Str !workload);
      ("seed", Json.Int !seed);
      ("trace", Json.Bool !traced);
      ( "env",
        Json.Obj
          [ ("chash_backend", Json.Str (Chash.backend_name ()));
            ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
            ("ocaml", Json.Str Sys.ocaml_version);
            ( "calibro_cache_dir",
              Json.Str
                (Option.value ~default:"" (Sys.getenv_opt "CALIBRO_CACHE_DIR")) ) ] );
      ("setup_s", Json.List (List.map (fun t -> Json.Float t) setup));
      ("unit_s", Json.List (List.map (fun t -> Json.Float t) units));
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "failures",
        Json.List
          (List.rev_map
             (fun (u, w) -> Json.Obj [ ("unit", Json.Int u); ("what", Json.Str w) ])
             !failures) );
      ("exact", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) exact));
      ("measured", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) others)) ]
    @ match layers with None -> [] | Some l -> [ ("layers", l) ]
  in
  print_endline (Json.to_string (Json.Obj fields))

(* ---- Set-up repetitions ------------------------------------------------- *)

(* Set up [reps] times, timing each; every set-up but the last is thrown
   away with [discard] (untimed). *)
let repeated_setup ~reps ~discard f =
  let rec go i times =
    let r, t = time f in
    if i < reps then begin
      discard r;
      go (i + 1) (t :: times)
    end
    else (r, List.rev (t :: times))
  in
  go 1 []

let reps () = if !tiny || !traced then 1 else 3

(* ---- store-cold --------------------------------------------------------- *)

let store_setup () =
  let apps =
    List.map
      (fun p ->
        let a = Appgen.generate p in
        if !seed = 0 then a
        else { a with Appgen.app = fst (Mutate.mutate ~seed:!seed a.Appgen.app) })
      Apps.all
  in
  let bases =
    List.map
      (fun (a : Appgen.app) ->
        (Pipeline.build ~cache:None ~config:Config.baseline a.Appgen.app).Pipeline.b_oat)
      apps
  in
  (apps, bases)

let store_pass apps =
  List.map
    (fun (a : Appgen.app) -> (Pipeline.build ~cache:None ~config a.Appgen.app).Pipeline.b_oat)
    apps

let store_anchor_text = 1_886_220
let store_anchor_cycles = 31_395_604

let check_committed ~units outs =
  if !seed = 0 then
    match committed_digests () with
    | Error e -> fail_all ~units ("cannot read committed digests: " ^ e)
    | Ok rows ->
      List.iter
        (fun (oat : Oat_file.t) ->
          match List.assoc_opt oat.Oat_file.apk_name rows with
          | None ->
            fail_all ~units ("no committed digest for " ^ oat.Oat_file.apk_name)
          | Some hex when hex <> text_digest oat ->
            fail_all ~units
              (Printf.sprintf "%s text digest %s, committed %s"
                 oat.Oat_file.apk_name (text_digest oat) hex)
          | Some _ -> ())
        outs

let store_cold () =
  let max_units = if !tiny then 1 else max_int in
  let (apps, bases), setup = repeated_setup ~reps:(reps ()) ~discard:ignore store_setup in
  if not !traced then begin
    let hwm_mark, hwm_read = hwm_after ~k:3 "self" in
    let samples =
      timed_loop ~max_units ~after:hwm_mark ~seconds:!seconds (fun ~stop:_ _ -> store_pass apps)
    in
    let rss = hwm_read () in
    let units = List.length samples in
    let first = snd (List.hd samples) in
    let digests = List.map text_digest first in
    List.iteri
      (fun u (_, outs) ->
        if List.map text_digest outs <> digests then
          fail ~unit_id:u "output differs from the first pass")
      samples;
    check_committed ~units first;
    let vm, verdicts, verify_s =
      check_outputs
        (List.map2
           (fun (a : Appgen.app) (base, out) -> (base, out, a.Appgen.app_script))
           apps (List.combine bases first))
    in
    List.iter (fun w -> fail_all ~units ("VM oracle: " ^ w)) verdicts;
    let text = List.fold_left (fun a o -> a + Oat_file.text_size o) 0 first in
    if !seed = 0 && (text <> store_anchor_text || vm.v_cycles <> store_anchor_cycles)
    then
      fail_all ~units
        (Printf.sprintf "seed-0 anchors: text %d (want %d), cycles %d (want %d)"
           text store_anchor_text vm.v_cycles store_anchor_cycles);
    emit ~setup ~units:(List.map fst samples)
      ~exact:
        (("text_bytes", text) :: vm_exact vm)
      ~others:(("peak_rss_mb", rss) :: verify_s)
      ~layers:None
  end
  else begin
    (* untraced passes and traced replays alternate *)
    let first = store_pass apps in
    let expect = List.map text_digest first in
    check_committed ~units:1 first;
    let replay_ok = ref true in
    let units =
      timed_loop ~min_units:2 ~max_units:(if !tiny then 2 else max_int)
        ~seconds:!seconds (fun ~stop:_ u ->
          if u mod 2 = 0 then begin
            if List.map text_digest (store_pass apps) <> expect then
              fail ~unit_id:u "output differs from the first pass";
            `Untraced
          end
          else begin
            cur_unit := u;
            let outs =
              span "unit" (fun () ->
                  List.map (fun (a : Appgen.app) -> replay_build ~cache:None a.Appgen.app) apps)
            in
            if u = 1 then List.iter (fun (_, p) -> tree_probe p) outs;
            if List.map (fun (o, _) -> text_digest o) outs <> expect then begin
              replay_ok := false;
              fail ~unit_id:u "replay output differs from the untraced pass"
            end;
            `Traced
          end)
    in
    let untraced_p50 =
      median (List.filter_map (fun (t, k) -> if k = `Untraced then Some t else None) units)
    in
    let a0 = List.hd apps in
    let insns, cycles = vm_probe (List.hd first) a0.Appgen.app_script in
    emit ~setup ~units:(List.map fst units)
      ~exact:[] ~others:[]
      ~layers:
        (Some
           (layer_report ~untraced_p50 ~replay_ok:!replay_ok
              ~extra:(fun ~vm_s ->
                [ ("vm.instructions", float_of_int insns);
                  ("vm.cycles", float_of_int cycles);
                  ("vm.insn_per_s", float_of_int insns /. vm_s) ]) ()))
  end

(* ---- serve-warm --------------------------------------------------------- *)

type member = {
  m_app : Appgen.app;
  m_apk : Dex_ir.apk;
  m_rq : Protocol.build_request;
  m_payload : string;
  m_expect : string;  (** serialized OAT of the cache-less reference build *)
  m_oat : Oat_file.t;
  m_base : Oat_file.t;
}

type daemon = { d_pid : int; d_dir : string; d_endpoint : Transport.endpoint }

let live_daemons : daemon list ref = ref []

let child_env () =
  Array.of_list
    (List.filter
       (fun kv ->
         not (String.length kv >= 18 && String.sub kv 0 18 = "CALIBRO_CACHE_DIR="))
       (Array.to_list (Unix.environment ())))

let daemon_alive d =
  match Unix.waitpid [ Unix.WNOHANG ] d.d_pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* SIGTERM drains the daemon; one that has not exited within [grace]
   seconds is killed. The scratch directory (socket, cache) goes too. *)
let stop_daemon ?(grace = 30.0) d =
  live_daemons := List.filter (fun x -> x.d_pid <> d.d_pid) !live_daemons;
  (try Unix.kill d.d_pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = Clock.now_ns () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.d_pid with
    | 0, _ when Clock.since_s t0 < grace ->
      Unix.sleepf 0.02;
      wait ()
    | 0, _ ->
      (try Unix.kill d.d_pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.d_pid)
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  rm_rf d.d_dir

let () =
  at_exit (fun () -> List.iter (fun d -> stop_daemon ~grace:5.0 d) !live_daemons)

let roundtrip endpoint payload : (Protocol.response, string) result =
  match Transport.connect endpoint with
  | exception Unix.Unix_error (e, _, _) -> Error ("connect: " ^ Unix.error_message e)
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
          Unix.setsockopt_float fd Unix.SO_SNDTIMEO 60.0;
          Protocol.write_frame fd payload;
          Protocol.decode_response (Protocol.read_frame fd)
        with
        | Unix.Unix_error (e, f, _) -> Error (f ^ ": " ^ Unix.error_message e)
        | Protocol.Frame_error m -> Error ("frame: " ^ m))

(* Start calibrod with one worker domain, a fresh cache directory and a
   fresh socket, and wait for it to answer [Hello]. *)
let start_daemon ~rep =
  let dir =
    Filename.concat !run_root (Printf.sprintf "%d-%d" (Unix.getpid ()) rep)
  in
  rm_rf dir;
  mkdir_p dir;
  let sock = Filename.concat dir "d.sock" in
  let errlog = Unix.openfile (Filename.concat dir "calibrod.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env !calibrod
      [| !calibrod; "--socket"; sock; "--workers"; "1"; "--cache-dir";
         Filename.concat dir "cache" |]
      (child_env ()) Unix.stdin errlog errlog
  in
  Unix.close errlog;
  let d = { d_pid = pid; d_dir = dir; d_endpoint = Transport.Unix_socket { path = sock } } in
  live_daemons := d :: !live_daemons;
  let t0 = Clock.now_ns () in
  let rec wait () =
    if not (daemon_alive d) then Error "calibrod exited during start-up"
    else if Clock.since_s t0 > 30.0 then Error "calibrod did not answer Hello within 30 s"
    else
      match roundtrip d.d_endpoint (Protocol.encode_hello ()) with
      | Ok (Protocol.Dict_info _) -> Ok d
      | _ ->
        Unix.sleepf 0.02;
        wait ()
  in
  match wait () with
  | Ok d -> Ok d
  | Error e ->
    stop_daemon ~grace:5.0 d;
    Error e

let pool_size () = 4

let serve_pool () =
  let k = Appgen.generate Apps.kuaishou in
  List.init (pool_size ()) (fun i ->
      let apk = fst (Mutate.mutate ~seed:((!seed * pool_size ()) + i + 1) k.Appgen.app) in
      let rq =
        { Protocol.rq_config = config;
          rq_dexsim = Dex_text.to_string apk;
          rq_profile = None; rq_deadline_ms = None; rq_dict = None;
          rq_shelve = None }
      in
      match Worker.build_oat ~cache:None rq with
      | Error r -> failwith ("reference build refused: " ^ Protocol.rejection_to_string r)
      | Ok (oat, _) ->
        { m_app = k; m_apk = apk; m_rq = rq; m_payload = Protocol.encode_request rq;
          m_expect = Bytes.to_string (Oat_file.to_bytes oat); m_oat = oat;
          m_base =
            (Pipeline.build ~cache:None ~config:Config.baseline apk).Pipeline.b_oat })

let check_response (m : member) = function
  | Ok (Protocol.Built { oat; _ }) when oat = m.m_expect -> None
  | Ok (Protocol.Built _) -> Some "served OAT differs from the cache-less build"
  | Ok (Protocol.Rejected r) -> Some ("refused: " ^ Protocol.rejection_to_string r)
  | Ok _ -> Some "unexpected response kind"
  | Error e -> Some e

(* The daemon's job body for one request, in-process and in one domain:
   decode the request payload, parse and build against the warm cache,
   encode the response payload ([Worker.build_response] and
   [Protocol.encode_response], the reference encoders of the served
   frame). *)
let serve_job store (m : member) =
  Protocol.encode_response
    (match Protocol.decode_request m.m_payload with
     | Ok (Protocol.Build rq) -> Worker.build_response ~cache:(Some store) rq
     | _ -> Protocol.Rejected (Protocol.Malformed "request did not decode"))

let serve_warm () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let setup () =
    let pool = Array.of_list (serve_pool ()) in
    (* the in-process stand-in for the daemon's warm cache *)
    let store = Cache.create () in
    Array.iter (fun m -> ignore (serve_job store m)) pool;
    (pool, store)
  in
  let (pool, store), setup_s = repeated_setup ~reps:(reps ()) ~discard:ignore setup in
  let n = Array.length pool in
  let check_all samples ~offset =
    List.iteri
      (fun i (_, r) ->
        match check_response pool.(i mod n) r with
        | None -> ()
        | Some w -> fail ~unit_id:(offset + i) w)
      samples
  in
  (* Round trips to a fresh calibrod: closed loop, one client, until
     [seconds] pass (at least [min] requests). The first pass over the
     pool fills the daemon's cache. A daemon that fails to start or dies
     fails every unit of the run. *)
  let daemon_round_trips ~units ~min ~seconds =
    match start_daemon ~rep:0 with
    | Error e ->
      fail_all ~units ("calibrod: " ^ e);
      ([], 0.0)
    | Ok d ->
      let samples =
        timed_loop ~min_units:min ~max_units:(max min (if !tiny then min else max_int))
          ~seconds (fun ~stop i ->
            let r = roundtrip d.d_endpoint pool.(i mod n).m_payload in
            (match r with
             | Ok (Protocol.Built _) -> ()
             | _ -> if not (daemon_alive d) then stop := true);
            r)
      in
      let rss = vm_hwm_mb (string_of_int d.d_pid) in
      if not (daemon_alive d) then fail_all ~units "calibrod died during the run";
      stop_daemon d;
      (samples, rss)
  in
  if not !traced then begin
    (* The timed units run the daemon's job body in-process: round trips
       through the daemon's two domains drift by a third from one minute
       to the next on a small shared host (README), so they are measured
       by the traced run instead ([server.wire_s]). *)
    let max_units = if !tiny then 4 else max_int in
    let hwm_mark, hwm_read = hwm_after ~k:30 "self" in
    let samples =
      timed_loop ~max_units ~after:hwm_mark ~seconds:!seconds (fun ~stop:_ i ->
          serve_job store pool.(i mod n))
    in
    let rss = hwm_read () in
    check_all (List.map (fun (t, r) -> (t, Protocol.decode_response r)) samples) ~offset:0;
    let units = List.length samples in
    (* the served path itself: one warm-up pass and one warm pass through
       a daemon, every response byte-compared *)
    let served, daemon_rss = daemon_round_trips ~units ~min:(2 * n) ~seconds:0.0 in
    List.iteri
      (fun i (_, r) ->
        match check_response pool.(i mod n) r with
        | None -> ()
        | Some w -> fail_all ~units ("calibrod: " ^ w))
      served;
    let vm, verdicts, verify_s =
      check_outputs
        (Array.to_list
           (Array.map (fun m -> (m.m_base, m.m_oat, m.m_app.Appgen.app_script)) pool))
    in
    List.iter (fun w -> fail_all ~units ("VM oracle: " ^ w)) verdicts;
    emit ~setup:setup_s
      ~units:(List.map fst samples)
      ~exact:
        (("text_bytes", Array.fold_left (fun a m -> a + Oat_file.text_size m.m_oat) 0 pool)
         :: vm_exact vm)
      ~others:(("peak_rss_mb", rss) :: ("daemon_peak_rss_mb", daemon_rss) :: verify_s)
      ~layers:None
  end
  else begin
    let half = !seconds /. 2.0 in
    let served, _ = daemon_round_trips ~units:1 ~min:(2 * n) ~seconds:half in
    check_all served ~offset:0;
    (* the first pass over the pool fills the daemon's cache *)
    let roundtrip_p50 = median (List.map fst (List.filteri (fun i _ -> i >= n) served)) in
    let nu = List.length served in
    (* Replays alternate with the daemon's job body run in-process and
       untraced ([Worker.build_response], warm): what a round trip costs
       without the wire. *)
    let replay_ok = ref true in
    let replays =
      timed_loop ~min_units:2 ~max_units:(if !tiny then 2 * n else max_int) ~seconds:half
        (fun ~stop:_ i ->
          let u = nu + i in
          let m = pool.(i / 2 mod n) in
          if i mod 2 = 0 then begin
            ignore (serve_job store m);
            `Untraced
          end
          else begin
          cur_unit := u;
          let c = counts_of u in
          span "unit" (fun () ->
                let rq =
                  match span "server.decode_request" (fun () -> Protocol.decode_request m.m_payload) with
                  | Ok (Protocol.Build rq) -> rq
                  | _ -> failwith "replay: request did not decode"
                in
                c.parsed_bytes <- c.parsed_bytes + String.length rq.Protocol.rq_dexsim;
                let apk =
                  match span "dex.parse" (fun () -> Dex_text.parse rq.Protocol.rq_dexsim) with
                  | Ok apk -> apk
                  | Error e -> failwith ("replay: parse: " ^ e)
                in
                let oat, _ = replay_build ~cache:(Some store) apk in
                let bytes = span "oat.emit" (fun () -> Oat_file.to_bytes oat) in
                let stats =
                  { Protocol.bs_text_size = Oat_file.text_size oat;
                    bs_methods = List.length oat.Oat_file.methods;
                    bs_thunks = List.length oat.Oat_file.thunks;
                    bs_outlined = List.length oat.Oat_file.outlined;
                    bs_build_s = 0.0 }
                in
                let resp =
                  span "server.encode_response" (fun () ->
                      Protocol.encode_response
                        (Protocol.Built { oat = Bytes.to_string bytes; stats }))
                in
                (* the served bytes passed the same comparison, so equal
                   bytes mean the replay built the served program *)
                match span "server.decode_response" (fun () -> Protocol.decode_response resp) with
                | Ok (Protocol.Built { oat = b; _ }) when b = m.m_expect -> ()
                | _ ->
                  replay_ok := false;
                  fail ~unit_id:u "replayed response differs from the served bytes");
          ignore (span "server.app_digest" (fun () -> Chash.string m.m_rq.Protocol.rq_dexsim));
          `Traced
          end)
    in
    let build_response_s =
      median (List.filter_map (fun (t, k) -> if k = `Untraced then Some t else None) replays)
    in
    let m0 = pool.(0) in
    ignore (span "dex.print" (fun () -> Dex_text.to_string m0.m_apk));
    let insns, cycles = vm_probe m0.m_oat m0.m_app.Appgen.app_script in
    let probe_median name =
      median
        (List.filter_map
           (fun s -> if s.s_name = name then Some (dur_s s) else None)
           !recorded)
    in
    emit ~setup:setup_s ~units:(List.map fst served @ List.map fst replays)
      ~exact:[] ~others:[]
      ~layers:
        (Some
           (layer_report ~untraced_p50:build_response_s
              ~replay_ok:!replay_ok
              ~extra:(fun ~vm_s ->
                [ ("dex.print_s", probe_median "dex.print");
                  ("server.app_digest_s", probe_median "server.app_digest");
                  ("server.build_response_s", build_response_s);
                  ("server.wire_s", roundtrip_p50 -. build_response_s);
                  ("vm.instructions", float_of_int insns);
                  ("vm.cycles", float_of_int cycles);
                  ("vm.insn_per_s", float_of_int insns /. vm_s) ]) ()))
  end


(* ---- train-incr --------------------------------------------------------- *)

let n_trains () = if !tiny then 1 else 3
let n_deltas () = if !tiny then 3 else 25

(* The trains of a run: [n_trains] Wechat release trains, two ops per
   delta. The cold reference builds cover a seeded subset — each train's
   final version plus one version drawn from [(seed, train)] — to keep
   set-up short; every other version is checked for repeatability
   across passes. *)
let train_setup () =
  let w = Appgen.generate Apps.wechat in
  let trains =
    List.init (n_trains ()) (fun j ->
        Train.generate ~ops_per_delta:2 ~deltas:(n_deltas ())
          ~seed:((!seed * n_trains ()) + j + 1) w.Appgen.app
        |> List.map (fun v -> v.Train.v_apk)
        |> Array.of_list)
  in
  let refs =
    List.mapi
      (fun j vs ->
        let last = Array.length vs - 1 in
        let rng = Random.State.make [| 0x7472; !seed; j |] in
        List.sort_uniq compare [ 1 + Random.State.int rng last; last ]
        |> List.map (fun v ->
               ( (j, v),
                 text_digest (Pipeline.build ~cache:None ~config vs.(v)).Pipeline.b_oat )))
      trains
    |> List.concat
  in
  (* Baseline builds of each train's version 1, for the VM checks. The
     VM runs there and not on the final versions: fifty release edits
     usually include a loop bound that grows a thousandfold, and the
     final versions then take minutes in the interpreter. *)
  let bases =
    List.map
      (fun vs -> (Pipeline.build ~cache:None ~config:Config.baseline vs.(1)).Pipeline.b_oat)
      trains
  in
  (w, trains, refs, bases)

(* One train from a fresh in-memory cache: version 0 untimed, then every
   later version timed as one unit through [build]. *)
let train_units ~build vs ~f =
  let store = Cache.create () in
  ignore (Pipeline.build ~cache:(Some store) ~config vs.(0));
  for v = 1 to Array.length vs - 1 do
    f v (time (fun () -> build store vs.(v)))
  done

let warm_build store apk = (Pipeline.build ~cache:(Some store) ~config apk).Pipeline.b_oat

let train_incr () =
  let (w, trains, refs, bases), setup =
    repeated_setup ~reps:(reps ()) ~discard:ignore train_setup
  in
  let first : ((int * int) * string) list ref = ref [] in
  let units = ref [] and firsts_v1 = ref [] and finals = ref [] in
  let record j v (oat, dt) =
    let u = List.length !units in
    units := dt :: !units;
    let d = text_digest oat in
    (match List.assoc_opt (j, v) !first with
     | None ->
       first := ((j, v), d) :: !first;
       if v = 1 then firsts_v1 := (j, oat) :: !firsts_v1;
       if v = Array.length (List.nth trains j) - 1 then
         finals := Oat_file.text_size oat :: !finals
     | Some d0 when d0 <> d -> fail ~unit_id:u "output differs from the previous pass"
     | Some _ -> ());
    match List.assoc_opt (j, v) refs with
    | Some r when r <> d ->
      fail ~unit_id:u
        (Printf.sprintf "train %d version %d differs from its cache-less build" j v)
    | _ -> ()
  in
  if not !traced then begin
    let h0 = Obs.Counter.value "cache.method.hits"
    and m0 = Obs.Counter.value "cache.method.misses" in
    (* Heap warm-up: the first train once, untimed; a process's first
       pass over a train runs several per cent slower than later ones. *)
    if not !tiny then train_units ~build:warm_build (List.hd trains) ~f:(fun _ _ -> ());
    let t0 = Clock.now_ns () in
    let passes = ref 0 and rss = ref 0.0 in
    while !passes = 0 || ((not !tiny) && Clock.since_s t0 < !seconds) do
      List.iteri (fun j vs -> train_units ~build:warm_build vs ~f:(record j)) trains;
      if !passes = 0 then rss := vm_hwm_mb "self";
      incr passes
    done;
    let rss = !rss in
    let hits = Obs.Counter.value "cache.method.hits" - h0
    and misses = Obs.Counter.value "cache.method.misses" - m0 in
    let nu = List.length !units in
    let vm, verdicts, verify_s =
      check_outputs
        (List.mapi
           (fun j base -> (base, List.assoc j !firsts_v1, w.Appgen.app_script))
           bases)
    in
    List.iter (fun v -> fail_all ~units:nu ("VM oracle: " ^ v)) verdicts;
    emit ~setup ~units:(List.rev !units)
      ~exact:
        ((("text_bytes", List.fold_left ( + ) 0 !finals) :: vm_exact vm)
        @ [ ("method_hits", hits); ("method_misses", misses); ("passes", !passes) ])
      ~others:(("peak_rss_mb", rss) :: verify_s)
      ~layers:None
  end
  else begin
    let vs = List.hd trains in
    train_units ~build:warm_build vs ~f:(record 0);
    let untraced = List.rev !units in
    let nu = List.length untraced in
    let replay_ok = ref true in
    let replayed = ref [] in
    train_units vs
      ~build:(fun store apk ->
        let u = nu + List.length !replayed in
        cur_unit := u;
        let oat, probe = span "unit" (fun () -> replay_build ~cache:(Some store) apk) in
        if !replayed = [] then tree_probe probe;
        oat)
      ~f:(fun v (oat, dt) ->
        let u = nu + List.length !replayed in
        replayed := dt :: !replayed;
        if Some (text_digest oat) <> List.assoc_opt (0, v) !first then begin
          replay_ok := false;
          fail ~unit_id:u "replay output differs from the untraced build"
        end);
    let insns, cycles = vm_probe (List.assoc 0 !firsts_v1) w.Appgen.app_script in
    emit ~setup ~units:(untraced @ List.rev !replayed) ~exact:[] ~others:[]
      ~layers:
        (Some
           (layer_report ~untraced_p50:(median untraced) ~replay_ok:!replay_ok
              ~extra:(fun ~vm_s ->
                [ ("vm.instructions", float_of_int insns);
                  ("vm.cycles", float_of_int cycles);
                  ("vm.insn_per_s", float_of_int insns /. vm_s) ]) ()))
  end

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pb --workload NAME --seed N --seconds S --trace 0|1";
  match !workload with
  | "store-cold" -> store_cold ()
  | "serve-warm" -> serve_warm ()
  | "train-incr" -> train_incr ()
  | w ->
    Printf.eprintf "pb: unknown workload %S\n" w;
    exit 2
