(* bench train: the store-scale release-train workload, and the
   shelve x outline tradeoff frontier it rides on.

   Two claims are measured, both gated against bench/baseline.json:

   1. The frontier (the "Shelving it rather than Ditching it" debloat
      table composed with Calibro's Table 6): each of the six evaluation
      apps is built outline-alone (CTO+LTBO+PlOpti(8)) and
      outline+shelve (coverage 0.8 against the app's own script
      profile). Shelving must beat outline-alone total text size by the
      committed floor — the cold methods collapse to 8-byte stubs —
      while the replayed scripts' total cycles stay within the
      committed envelope (shelf faults and interpretation penalties are
      the price; the envelope says how much). Any divergence between a
      shelved and unshelved run's VM output fails unconditionally —
      shelving may only cost cycles, never change semantics. The same
      apps are then bound against a shared dictionary mined from the
      shelved (warm-set-only) builds, re-verifying the store floor
      under a shelve-enabled config: sharing must still save bytes.

   2. The release train: a deterministic Workload.Train of one-delta
      app versions replayed through a 3-shard calibrod fleet behind the
      consistent-hash router, every request asking for a shelved build.
      Each client walks the versions in order, so the first client to
      reach a version pays the cold build and the rest hit warm; the
      fleet-wide cache hit rate is gated against a committed floor
      (half the measured rate — concurrent cold-build races make the
      exact count machine-dependent). The incremental-relink win — the
      fraction of cache lookups served warm when walking the train
      sequentially on a fresh cache, version-to-version — is
      single-threaded and deterministic, so its floor is exact. Every
      served OAT must be byte-identical to an in-process build of the
      same request.

   The PGO drift loop is also re-run shelve-enabled (Pgo_bench.measure
   ~shelve): the re-link must still happen exactly once, byte-faithfully
   and monotonically, with the shelving plan re-derived from the drifted
   profile — the unshelve-on-drift path, end to end. *)

open Calibro_core
open Calibro_workload
module Shelve = Calibro_shelve.Shelve
module Profile = Calibro_profile.Profile
module Interp = Calibro_vm.Interp
module Oat_file = Calibro_oat.Oat_file
module Dict = Calibro_dict.Dict
module Server = Calibro_server.Server
module Client = Calibro_server.Client
module Worker = Calibro_server.Worker
module Protocol = Calibro_server.Protocol
module Transport = Calibro_server.Transport
module Router = Calibro_server.Router
module Obs = Calibro_obs.Obs
module Clock = Calibro_obs.Clock
module Json = Calibro_obs.Json

let shelve_coverage = 0.8
let pl8 = Config.cto_ltbo_pl ~k:8 ()

(* The train replayed through the fleet: demo-app versions, one Mutate
   delta apart, under the serve bench's pl2 config. *)
let train_deltas = 40
let fleet_shards = 3
let fleet_clients = 3

type app_row = {
  ta_name : string;
  ta_text_plain : int;  (* pl8, outline alone *)
  ta_text_shelved : int;  (* pl8 + shelve: warm text + stubs *)
  ta_shelf_bytes : int;  (* parked bodies, mapped cold *)
  ta_shelved_methods : int;
  ta_unshelved : int;  (* methods the script faulted back in *)
  ta_cycles_plain : int;
  ta_cycles_shelved : int;
  ta_vm_ok : bool;
      (* shelved and dict-bound-shelved runs produce the plain run's
         exact output log *)
  ta_policy_ok : bool;  (* OAT records the plan's policy digest *)
}

type fleet = {
  tf_versions : int;
  tf_requests : int;
  tf_built : int;
  tf_errors : int;
  tf_byte_ok : bool;
  tf_hit_rate : float;  (* fleet-wide cache hit rate over the replay *)
  tf_throughput : float;
}

type result = {
  tr_apps : app_row list;
  tr_text_plain_total : int;
  tr_text_shelved_total : int;
  tr_text_saved : int;  (* plain - shelved, the debloat win *)
  tr_cycle_ratio : float;  (* shelved cycles / plain cycles, >= 1 *)
  tr_store_saved_shelved : int;
      (* dict sharing across the shelved warm sets, net of the image *)
  tr_dict_digest : string;
  tr_incr_hit_rate : float;  (* sequential train walk, deterministic *)
  tr_fleet : fleet;
  tr_pgo : Pgo_bench.result;  (* the drift loop, shelve-enabled *)
}

(* Shelving may only trade cycles for bytes, never semantics; both wins
   must be real; the fleet must serve the exact in-process bytes; and the
   shelve-enabled drift loop keeps the PGO loop's contract. *)
let failures r =
  Gate.violated
    (List.map
       (fun a ->
         ( a.ta_vm_ok && a.ta_policy_ok,
           Printf.sprintf
             "train: shelved %s diverged from its unshelved build in the VM"
             a.ta_name ))
       r.tr_apps
     @ [ (r.tr_text_saved > 0,
          "train: shelve x outline saves no text over outline alone");
         (r.tr_store_saved_shelved > 0,
          "train: the shared dictionary saves no bytes over the shelved warm \
           sets");
         (r.tr_fleet.tf_byte_ok,
          "train: the fleet served bytes differing from in-process shelved \
           builds");
         (r.tr_fleet.tf_hit_rate > 0.0,
          "train: the release-train replay never hit the fleet cache") ])
  @ Pgo_bench.loop_failures "train: shelved pgo" r.tr_pgo

let run_script ?dict oat script =
  let t = Interp.load ?dict oat in
  List.iter
    (fun (st : Appgen.script_step) ->
      for _ = 1 to st.Appgen.sc_repeat do
        match Interp.call t st.Appgen.sc_method st.Appgen.sc_args with
        | Interp.Fault m ->
          failwith
            (Printf.sprintf "train bench script fault in %s: %s"
               (Calibro_dex.Dex_ir.method_ref_to_string st.Appgen.sc_method)
               m)
        | _ -> ()
      done)
    script;
  t

(* Cache traffic, summed over every namespace the pipeline uses. *)
let cache_ns = [ "method"; "detect" ]

let cache_counts () =
  List.fold_left
    (fun (h, m) ns ->
      ( h
        + Obs.Counter.value (Printf.sprintf "cache.%s.hits" ns)
        + Obs.Counter.value (Printf.sprintf "cache.%s.disk_hits" ns),
        m + Obs.Counter.value (Printf.sprintf "cache.%s.misses" ns) ))
    (0, 0) cache_ns

(* ---- the shelve x outline frontier (six apps) --------------------------- *)

(* Per app: outline-alone vs outline+shelve, cycles of the app's own
   script on both, and a dictionary mined from the shelved builds to
   re-verify store sharing on the warm set. Returns the rows and the
   dictionary stats. *)
let frontier () =
  let per_app =
    List.map
      (fun (p : Appgen.profile) ->
        Printf.eprintf "[train] frontier: %s...\n%!" p.Appgen.p_name;
        let g = Appgen.generate p in
        let apk = g.Appgen.app and script = g.Appgen.app_script in
        let plain = Pipeline.build ~config:pl8 apk in
        let tp = run_script plain.Pipeline.b_oat script in
        let plan =
          Shelve.of_profile ~coverage:shelve_coverage (Profile.of_interp tp)
        in
        let shelved = Pipeline.build ~config:pl8 ~shelve:plan apk in
        let ts = run_script shelved.Pipeline.b_oat script in
        (apk, script, plan, plain, tp, shelved, ts))
      Apps.all
  in
  let d =
    Dict.of_oats
      (List.map (fun (_, _, _, _, _, s, _) -> s.Pipeline.b_oat) per_app)
  in
  let ld = Dict.linker_dict d in
  let rows, bound_total =
    List.fold_left
      (fun (rows, bound_total) (apk, script, plan, plain, tp, shelved, ts) ->
        let name = apk.Calibro_dex.Dex_ir.apk_name in
        Printf.eprintf "[train] binding %s against %s...\n%!" name
          (Dict.digest d);
        let bound = Pipeline.build ~config:pl8 ~dict:ld ~shelve:plan apk in
        let tb = run_script ~dict:(Dict.vm_image d) bound.Pipeline.b_oat script in
        let plain_log = Interp.log tp in
        let row =
          { ta_name = name;
            ta_text_plain = Pipeline.text_size plain;
            ta_text_shelved = Pipeline.text_size shelved;
            ta_shelf_bytes =
              (match shelved.Pipeline.b_oat.Oat_file.shelve with
               | Some s -> Bytes.length s.Oat_file.shf_image
               | None -> 0);
            ta_shelved_methods = shelved.Pipeline.b_shelved;
            ta_unshelved = Interp.unshelved_count ts;
            ta_cycles_plain = Interp.cycles tp;
            ta_cycles_shelved = Interp.cycles ts;
            ta_vm_ok = Interp.log ts = plain_log && Interp.log tb = plain_log;
            ta_policy_ok =
              (match shelved.Pipeline.b_oat.Oat_file.shelve with
               | Some s -> String.equal s.Oat_file.shf_digest plan.Shelve.sp_digest
               | None -> shelved.Pipeline.b_shelved = 0) }
        in
        (row :: rows, bound_total + Pipeline.text_size bound))
      ([], 0) per_app
  in
  let rows = List.rev rows in
  let shelved_total =
    List.fold_left (fun a r -> a + r.ta_text_shelved) 0 rows
  in
  (rows, Dict.digest d, shelved_total - (bound_total + Dict.size d))

(* ---- the release train -------------------------------------------------- *)

let train_requests () =
  let g = Appgen.generate Apps.demo in
  let base = g.Appgen.app in
  let bl = Pipeline.build ~config:Config.baseline base in
  let prof_text =
    Profile.to_string
      (Profile.of_interp (run_script bl.Pipeline.b_oat g.Appgen.app_script))
  in
  let config =
    match Config.of_string "pl2" with Ok c -> c | Error e -> failwith e
  in
  Train.fold ~deltas:train_deltas ~seed:1 base ~init:[] ~f:(fun acc v ->
      { Protocol.rq_config = config;
        rq_dexsim = Calibro_dex.Dex_text.to_string v.Train.v_apk;
        rq_profile = Some prof_text;
        rq_deadline_ms = None;
        rq_dict = None;
        rq_shelve = Some shelve_coverage }
      :: acc)
  |> List.rev |> Array.of_list

(* The deterministic half of the claim: walk the train once, in order,
   on a fresh cache, and measure what fraction of cache lookups after
   version 0 come back warm. Consecutive versions differ by one Mutate
   delta, so this is the incremental-relink win, exact. *)
let incr_measure (slots : Protocol.build_request array) =
  let cache = Calibro_cache.Cache.create () in
  let build rq =
    ignore (Worker.build_response ~cache:(Some cache) rq : Protocol.response)
  in
  build slots.(0);
  let h0, m0 = cache_counts () in
  Array.iteri (fun i rq -> if i > 0 then build rq) slots;
  let h1, m1 = cache_counts () in
  let hits = h1 - h0 and misses = m1 - m0 in
  if hits + misses = 0 then 0.0
  else float_of_int hits /. float_of_int (hits + misses)

let fleet_measure (slots : Protocol.build_request array) : fleet =
  let expected =
    Array.map
      (fun rq ->
        match Worker.build_response ~cache:None rq with
        | Protocol.Built { oat; _ } -> oat
        | Protocol.Rejected rej ->
          failwith
            ("train bench version does not build: "
            ^ Protocol.rejection_to_string rej)
        | Protocol.Dict_info _ | Protocol.Report_ack _ ->
          failwith "train bench version answered a non-build response")
      slots
  in
  let servers =
    Array.init fleet_shards (fun _ ->
        Server.create
          { (Server.default_config
               ~endpoint:(Transport.Tcp { host = "127.0.0.1"; port = 0 }))
            with
            Server.cache = Some (Calibro_cache.Cache.create ()) })
  in
  let socket =
    Printf.sprintf "%s/calibro-bench-train-%d.sock"
      (Filename.get_temp_dir_name ()) (Unix.getpid ())
  in
  let router =
    Router.create
      (Router.default_config
         ~listen:(Transport.Unix_socket { path = socket })
         ~shards:(Array.map Server.endpoint servers))
  in
  let endpoint = Router.endpoint router in
  let n_versions = Array.length slots in
  let built = Atomic.make 0
  and errors = Atomic.make 0
  and mismatches = Atomic.make 0 in
  let h0, m0 = cache_counts () in
  let t0 = Clock.now_ns () in
  let client_thread _ () =
    (* every client replays the whole train, in version order *)
    for r = 0 to n_versions - 1 do
      match Client.request ~endpoint slots.(r) with
      | Ok (Protocol.Built { oat; _ }) ->
        Atomic.incr built;
        if not (String.equal oat expected.(r)) then Atomic.incr mismatches
      | Ok _ -> Atomic.incr errors
      | Error _ -> Atomic.incr errors
    done
  in
  let threads =
    List.init fleet_clients (fun c -> Thread.create (client_thread c) ())
  in
  List.iter Thread.join threads;
  let wall_s = Clock.since_s t0 in
  Router.request_drain router;
  Router.drain router;
  Array.iter
    (fun s ->
      Server.request_drain s;
      Server.drain s)
    servers;
  let h1, m1 = cache_counts () in
  let hits = h1 - h0 and misses = m1 - m0 in
  let total = fleet_clients * n_versions in
  { tf_versions = n_versions;
    tf_requests = total;
    tf_built = Atomic.get built;
    tf_errors = Atomic.get errors;
    tf_byte_ok =
      Atomic.get mismatches = 0 && Atomic.get errors = 0
      && Atomic.get built = total;
    tf_hit_rate =
      (if hits + misses = 0 then 0.0
       else float_of_int hits /. float_of_int (hits + misses));
    tf_throughput = float_of_int (Atomic.get built) /. wall_s }

let measure () : result =
  let rows, dict_digest, store_saved_shelved = frontier () in
  let total f = List.fold_left (fun a r -> a + f r) 0 rows in
  let plain_total = total (fun r -> r.ta_text_plain)
  and shelved_total = total (fun r -> r.ta_text_shelved)
  and cycles_plain = total (fun r -> r.ta_cycles_plain)
  and cycles_shelved = total (fun r -> r.ta_cycles_shelved) in
  Printf.eprintf "[train] replaying the %d-delta release train...\n%!"
    train_deltas;
  let slots = train_requests () in
  let incr_hit_rate = incr_measure slots in
  let fleet = fleet_measure slots in
  Printf.eprintf "[train] re-running the PGO loop shelve-enabled...\n%!";
  let pgo = Pgo_bench.measure ~shelve:shelve_coverage () in
  { tr_apps = rows;
    tr_text_plain_total = plain_total;
    tr_text_shelved_total = shelved_total;
    tr_text_saved = plain_total - shelved_total;
    tr_cycle_ratio = float_of_int cycles_shelved /. float_of_int cycles_plain;
    tr_store_saved_shelved = store_saved_shelved;
    tr_dict_digest = dict_digest;
    tr_incr_hit_rate = incr_hit_rate;
    tr_fleet = fleet;
    tr_pgo = pgo }

let report r =
  List.iter
    (fun a ->
      Printf.printf
        "  %-9s text %7d -> %7d (+%7d shelf)  %4d shelved, %3d unshelved  \
         cycles %9d -> %9d  vm %s\n"
        a.ta_name a.ta_text_plain a.ta_text_shelved a.ta_shelf_bytes
        a.ta_shelved_methods a.ta_unshelved a.ta_cycles_plain
        a.ta_cycles_shelved
        (if a.ta_vm_ok && a.ta_policy_ok then "faithful" else "DIVERGES"))
    r.tr_apps;
  Printf.printf
    "  frontier: text %d -> %d (%d saved), cycle ratio %.3fx\n"
    r.tr_text_plain_total r.tr_text_shelved_total r.tr_text_saved
    r.tr_cycle_ratio;
  Printf.printf
    "  store (shelved warm sets, dict %s): %d bytes saved net of the image\n"
    r.tr_dict_digest r.tr_store_saved_shelved;
  Printf.printf
    "  train: %d versions x %d clients through %d shards: %d built, %d \
     errors, bytes %s\n"
    r.tr_fleet.tf_versions fleet_clients fleet_shards r.tr_fleet.tf_built
    r.tr_fleet.tf_errors
    (if r.tr_fleet.tf_byte_ok then "identical to in-process builds"
     else "DIFFER");
  Printf.printf
    "  train: fleet cache hit rate %.3f, incremental walk hit rate %.3f, \
     %.1f builds/s\n"
    r.tr_fleet.tf_hit_rate r.tr_incr_hit_rate r.tr_fleet.tf_throughput;
  Printf.printf "  pgo (shelve-enabled): %d relink(s), %d cache hits, flip \
                 %s, bytes %s\n%!"
    r.tr_pgo.Pgo_bench.pg_relinks r.tr_pgo.Pgo_bench.pg_relink_cache_hits
    (if r.tr_pgo.Pgo_bench.pg_flip_monotone then "monotone" else "BROKEN")
    (if r.tr_pgo.Pgo_bench.pg_byte_ok then "identical" else "DIFFER")

let section r =
  Json.Obj
    [ ( "apps",
        Json.Obj
          (List.map
             (fun a ->
               ( a.ta_name,
                 Json.Obj
                   [ ("text_plain", Json.Int a.ta_text_plain);
                     ("text_shelved", Json.Int a.ta_text_shelved);
                     ("shelf_bytes", Json.Int a.ta_shelf_bytes);
                     ("shelved_methods", Json.Int a.ta_shelved_methods);
                     ("unshelved", Json.Int a.ta_unshelved);
                     ("cycles_plain", Json.Int a.ta_cycles_plain);
                     ("cycles_shelved", Json.Int a.ta_cycles_shelved);
                     ("vm_ok", Json.Bool (a.ta_vm_ok && a.ta_policy_ok)) ] ))
             r.tr_apps) );
      ("text_saved", Json.Int r.tr_text_saved);
      ("cycle_ratio", Json.Float r.tr_cycle_ratio);
      ("store_saved_shelved", Json.Int r.tr_store_saved_shelved);
      ("incr_hit_rate", Json.Float r.tr_incr_hit_rate);
      ("fleet_hit_rate", Json.Float r.tr_fleet.tf_hit_rate);
      ("fleet_byte_equal", Json.Bool r.tr_fleet.tf_byte_ok);
      ("pgo_shelved_relinks", Json.Int r.tr_pgo.Pgo_bench.pg_relinks);
      ( "pgo_shelved_relink_cache_hits",
        Json.Int r.tr_pgo.Pgo_bench.pg_relink_cache_hits );
      ("ok", Json.Bool (failures r = [])) ]
