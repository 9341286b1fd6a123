(* The end-to-end DEX2OAT-with-Calibro pipeline (paper Figure 5):

     apk -> per-method HGraph -> IR opt passes -> codegen (CTO + LTBO.1)
         -> LTBO.2 (global or paralleled suffix trees)
         -> linking -> OAT

   Per-phase timings are recorded on the monotonic clock and mirrored
   into the lib/obs span/metric registry; Table 6 is their ratio across
   configurations. *)

open Calibro_dex
open Calibro_hgraph
open Calibro_codegen
open Calibro_oat
module Obs = Calibro_obs.Obs
module Clock = Calibro_obs.Clock
module Json = Calibro_obs.Json
module Cache = Calibro_cache.Cache

module Shelve = Calibro_shelve.Shelve

type build = {
  b_config : Config.t;
  b_oat : Oat_file.t;
  b_timings : (string * float) list;  (** (phase, seconds) in order *)
  b_ltbo_stats : Ltbo.stats option;
  b_cto_hits : (string * int) list;   (** summed over methods *)
  b_shelved : int;  (** methods parked on the shelf (0 without [?shelve]) *)
  b_cache_hits : int;  (** method and detection cache hits this build scored *)
}

let total_time b = List.fold_left (fun a (_, t) -> a +. t) 0.0 b.b_timings

exception Build_error of string

(* One pipeline phase: an [Obs] span (nested under [pipeline.build]) plus
   the [(name, seconds)] pair Table 6 is derived from — both read the
   same monotonic clock, never [Unix.gettimeofday]. *)
let timed phases name f =
  Obs.span ~cat:"pipeline" ("pipeline." ^ name) (fun () ->
      let t0 = Clock.now_ns () in
      let r = f () in
      phases := (name, Clock.since_s t0) :: !phases;
      r)

(* ---- Compilation cache -------------------------------------------------

   The per-method key covers everything [Codegen.compile] reads: the
   method's own IR (instructions, register/parameter shape, flags, name),
   its slot, the slot of every callee in call order (cached code embeds
   resolved callee symbols in its relocations, so an add/delete elsewhere
   in the apk that shifts a callee's slot must miss), the configuration
   bits that reach codegen, and the cache salt. [Marshal] with
   [No_sharing] on [Dex_ir] values is deterministic: they contain no
   closures or cycles, and without back-references the encoding depends
   only on structure, never on how the front end happened to share
   sub-values — structurally equal methods always hash identically. *)

let method_key ~(config : Config.t) ~slot_of_method ~slot (m : Dex_ir.meth) =
  let callee_slots =
    Array.to_list m.Dex_ir.insns
    |> List.filter_map (function
         | Dex_ir.Invoke (callee, _, _) -> Some (callee, slot_of_method callee)
         | _ -> None)
  in
  Cache.key
    [ Cache.salt; "method";
      (* fed to the key hash directly — the old pre-digest here meant the
         method bytes were hashed twice per lookup, once into this inner
         digest and once more when Cache.key hashed the parts *)
      Marshal.to_string (m, slot, callee_slots) [ Marshal.No_sharing ];
      Printf.sprintf "ir=%b;cto=%b" config.Config.optimize_ir
        config.Config.cto ]

(* The ambient cache: [CALIBRO_CACHE_DIR] names an on-disk store shared by
   every build that does not pass [?cache] explicitly. Unset (or empty)
   means no ambient cache. *)
let env_cache : Cache.t option Lazy.t =
  lazy
    (match Sys.getenv_opt "CALIBRO_CACHE_DIR" with
     | Some dir when String.trim dir <> "" -> Some (Cache.create ~dir ())
     | _ -> None)

(* Each part is tagged and length-prefixed, so the plain, dictionary,
   shelve and dictionary+shelve scopes can never alias. *)
let memo_scope ?(dict : Linker.dict option)
    ?(shelve : Shelve.plan option) () =
  let part tag = function
    | None -> ""
    | Some d -> Printf.sprintf "%s%d:%s" tag (String.length d) d
  in
  part "dict" (Option.map (fun d -> d.Linker.dct_digest) dict)
  ^ part "shelve" (Option.map (fun p -> p.Shelve.sp_digest) shelve)

let build ?(cache = Lazy.force env_cache) ?(config = Config.baseline) ?dict
    ?shelve (apk : Dex_ir.apk) : build =
  Obs.span ~cat:"pipeline" "pipeline.build"
    ~args:(fun () ->
      [ ("apk", Json.Str apk.Dex_ir.apk_name);
        ("config", Json.Str config.Config.name) ])
  @@ fun () ->
  Obs.Counter.incr "pipeline.builds";
  (match Dex_check.check apk with
   | Ok () -> ()
   | Error errs ->
     raise
       (Build_error
          (String.concat "; " (List.map Dex_check.error_to_string errs))));
  let phases = ref [] in
  let methods = Dex_ir.methods_of_apk apk in
  let slots = Hashtbl.create (List.length methods) in
  List.iteri
    (fun i (m : Dex_ir.meth) -> Hashtbl.replace slots m.name i)
    methods;
  let slot_of_method name =
    match Hashtbl.find_opt slots name with
    | Some s -> s
    | None ->
      raise (Build_error ("undefined method " ^ Dex_ir.method_ref_to_string name))
  in
  (* Frontend + IR optimization + codegen, per method (Figure 5's per-method
     lanes), compiled in parallel under [Parallel.map]. With a cache, hits
     skip HGraph construction, the IR passes and codegen. The caller
     computes every key and lookup first, the misses (and their token
     digests) compile in parallel, and the caller then stores them in
     method order, so the cache has one writer per build. A key includes
     its method's slot, so no miss could have hit an entry stored earlier
     in the same build. The token digests feed the LTBO detection memo
     below. *)
  let digests = Array.make (List.length methods) None in
  let method_hits = ref 0 in
  let compile_method (m : Dex_ir.meth) =
    let g = Hgraph.of_method m in
    if config.Config.optimize_ir then ignore (Passes.optimize g);
    Codegen.compile ~config:{ Codegen.cto = config.Config.cto } ~slot_of_method
      g
  in
  let compiled =
    timed phases "dex2oat" (fun () ->
        let ms = Array.of_list methods in
        match cache with
        | None -> Array.to_list (Parallel.map compile_method ms)
        | Some c ->
          let keys =
            Array.map
              (fun (m : Dex_ir.meth) ->
                method_key ~config ~slot_of_method
                  ~slot:(slot_of_method m.Dex_ir.name) m)
              ms
          in
          let entries = Array.map (Cache.find_method c) keys in
          let misses =
            List.init (Array.length ms) Fun.id
            |> List.filter (fun i -> Option.is_none entries.(i))
            |> Array.of_list
          in
          let fresh =
            Parallel.map
              (fun i ->
                let cm = compile_method ms.(i) in
                { Cache.ce_method = cm; ce_token_digest = Seq_map.method_digest cm })
              misses
          in
          Array.iter2
            (fun i e ->
              Cache.add_method c keys.(i) e;
              entries.(i) <- Some e)
            misses fresh;
          method_hits := Array.length ms - Array.length misses;
          List.init (Array.length ms) (fun i ->
              let e = Option.get entries.(i) in
              digests.(i) <- Some e.Cache.ce_token_digest;
              e.Cache.ce_method))
  in
  (* Shelving (the "Shelving it rather than Ditching it" composition):
     partition the compiled methods into the profile-warm survivors and
     the cold set, whose bodies are parked on the shelf behind fixed-size
     fault stubs. The split runs after per-method compilation — so the
     per-method cache population is shared with unshelved builds — and
     before LTBO, so outlining mines only the warm set. *)
  let shelve_split =
    match shelve with
    | None -> None
    | Some plan ->
      timed phases "shelve" (fun () -> Some (Shelve.split ~plan compiled))
  in
  let mined_input =
    match shelve_split with
    | None -> compiled
    | Some s -> s.Shelve.sv_warm
  in
  let mined, outlined, ltbo_stats =
    if not config.Config.ltbo then (mined_input, [], None)
    else
      timed phases "ltbo" (fun () ->
          (* Indexed by position in the mined list; a method's slot is its
             global index, so the compile-time digest array maps through it
             even for the filtered warm set. *)
          let marr = Array.of_list mined_input in
          let digest_of =
            Option.map
              (fun _ mi -> digests.(marr.(mi).Compiled_method.slot))
              cache
          in
          let r =
            Parallel.run ?cache ?digest_of
              ~scope:(memo_scope ?dict ?shelve ())
              ~options:(Config.ltbo_options config)
              ~k:config.Config.parallel_trees
              ~rounds:config.Config.ltbo_rounds mined_input
          in
          (r.Ltbo.methods, r.Ltbo.outlined, Some r.Ltbo.stats))
  in
  let linked_methods, shelf_input =
    match shelve_split with
    | None -> (mined, None)
    | Some s -> (mined @ s.Shelve.sv_stubs, s.Shelve.sv_shelf)
  in
  (* Final link: bind symbols, relocate calls (section 3.2); with a
     dictionary, bodies the store already carries bind to their shared
     slots instead of being placed locally. *)
  let oat =
    timed phases "link" (fun () ->
        Linker.link ~apk_name:apk.Dex_ir.apk_name
          ~thunks:(if config.Config.cto then Abi.all_thunks else [])
          ~extra:outlined ?dict ?shelve:shelf_input linked_methods)
  in
  let cto_hits =
    List.fold_left
      (fun acc (cm : Compiled_method.t) ->
        List.fold_left
          (fun acc (k, v) ->
            let cur = Option.value ~default:0 (List.assoc_opt k acc) in
            (k, cur + v) :: List.remove_assoc k acc)
          acc cm.Compiled_method.cto_hits)
      [] compiled
  in
  { b_config = config; b_oat = oat; b_timings = List.rev !phases;
    b_ltbo_stats = ltbo_stats; b_cto_hits = List.sort compare cto_hits;
    b_shelved =
      (match shelve_split with
       | None -> 0
       | Some s -> Shelve.shelved_count s);
    b_cache_hits =
      !method_hits
      + (match ltbo_stats with Some s -> s.Ltbo.s_memo_hits | None -> 0) }

(* Convenience: text-segment size, the paper's headline metric. *)
let text_size b = Oat_file.text_size b.b_oat

let reduction_vs ~baseline b =
  let bs = float_of_int (text_size baseline) in
  (* An empty baseline text segment (an app with no methods) has nothing to
     reduce: report 0.0 rather than 0/0 = NaN, which would poison every
     downstream average and comparison. *)
  if bs = 0.0 then 0.0 else (bs -. float_of_int (text_size b)) /. bs
