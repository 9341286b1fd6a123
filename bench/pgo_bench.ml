(* bench pgo: the continuous re-optimization loop, measured end to end.

   The scenario is the paper's Table 7 read in reverse: an app whose
   usage drifts away from the profile its OAT was linked with pays a
   runtime cycle penalty; the PGO loop's job is to claw that penalty
   back with an incremental re-link through the shared cache — no cold
   rebuild, no client-side change.

   The run: an in-process calibrod (3 workers, shared in-memory cache,
   PGO manager attached) serves the Kuaishou-scale app built against the
   old regime's profile, then receives a stream of profile reports from
   the new regime — the same script with the hot half of its steps
   flipped, which displaces most of the execution mass. The drift
   detector must schedule exactly one re-link; afterwards the same Build
   request must serve the refreshed OAT.

   Correctness before speed, as everywhere in this harness:
   - the refreshed OAT must be byte-identical to an in-process build
     against the drifted profile (the linking-time oracle), and
   - once flipped, the served bytes must never flip back.

   The headline number is deterministic (the interpreter's cycle counts
   are exact): running the drifted script costs [pg_stale_cycles] on the
   stale OAT and [pg_relinked_cycles] on the re-linked one. Byte-identity
   makes relinked = fresh, so the measured residual degradation is 0% —
   the gate holds it to the Table 7 envelope committed in the baseline,
   and holds the stale penalty above a committed floor (drift that does
   not hurt would make the whole bench vacuous). *)

open Calibro_core
open Calibro_workload
module Server = Calibro_server.Server
module Client = Calibro_server.Client
module Worker = Calibro_server.Worker
module Protocol = Calibro_server.Protocol
module Transport = Calibro_server.Transport
module Pgo = Calibro_pgo.Pgo
module Profile = Calibro_profile.Profile
module Interp = Calibro_vm.Interp
module Oat_file = Calibro_oat.Oat_file
module Json = Calibro_obs.Json
module Chash = Calibro_chash.Chash

(* The repo's own Table 7 average degradation (EXPERIMENTS.md: ~+4.6%
   for +PlOpti on this workload): the re-linked OAT must keep the
   drifted script within this envelope of the fresh-optimal build. *)
let table7_envelope_pct = 4.6

let steady_reports = 4
let max_drift_reports = 12

type result = {
  pg_app : string;
  pg_reports : int;  (* total profile reports streamed *)
  pg_relinks : int;  (* manager's tally; the claim is exactly 1 *)
  pg_relink_cache_hits : int;
  pg_flip_monotone : bool;  (* served bytes flipped exactly once *)
  pg_byte_ok : bool;  (* refreshed OAT = in-process drifted build *)
  pg_stale_cycles : int;  (* drifted script on the stale OAT *)
  pg_relinked_cycles : int;  (* drifted script on the served refreshed OAT *)
  pg_fresh_cycles : int;  (* drifted script on a cold drifted build *)
  pg_errors : int;
}

let stale_degradation_pct r =
  100.
  *. float_of_int (r.pg_stale_cycles - r.pg_fresh_cycles)
  /. float_of_int r.pg_fresh_cycles

let relink_degradation_pct r =
  100.
  *. float_of_int (r.pg_relinked_cycles - r.pg_fresh_cycles)
  /. float_of_int r.pg_fresh_cycles

(* The loop's contract, for [label]'s run: exactly one re-link, the
   refreshed OAT byte-identical to the in-process drifted build, the
   served bytes flipping exactly once, and no request errors. *)
let loop_failures label r =
  Gate.violated
    [ (r.pg_relinks = 1,
       Printf.sprintf "%s: drift scheduled %d re-links (want exactly 1)" label
         r.pg_relinks);
      (r.pg_byte_ok,
       label ^ ": the re-linked OAT is not byte-identical to the in-process \
                drifted build");
      (r.pg_flip_monotone,
       label ^ ": the served bytes did not flip exactly once (old -> new)");
      (r.pg_errors = 0,
       Printf.sprintf "%s: %d request errors during the drift run" label
         r.pg_errors) ]

(* Beyond the loop: the drift must cost cycles on the stale OAT (or the
   bench measures nothing), and the re-link must win them back to within
   the Table 7 envelope. *)
let failures r =
  loop_failures "pgo" r
  @ Gate.violated
      [ (stale_degradation_pct r > 0.,
         "pgo: the drifted workload costs nothing on the stale OAT — the \
          bench is measuring no real drift");
        (relink_degradation_pct r <= table7_envelope_pct,
         Printf.sprintf
           "pgo: re-linked degradation +%.2f%% exceeds the Table 7 envelope \
            %.1f%%"
           (relink_degradation_pct r) table7_envelope_pct) ]

(* The two usage regimes: one script, opposite halves hot (x16). A
   binary split displaces far more execution mass than a ramp — the
   heaviest method keeps dominating a ramp's totals and the
   mass-weighted drift score never clears the threshold. *)
let weighted script w =
  List.mapi
    (fun i (st : Appgen.script_step) -> { st with Appgen.sc_repeat = w i })
    script

let run_script oat script =
  let t = Interp.load oat in
  List.iter
    (fun (st : Appgen.script_step) ->
      for _ = 1 to st.Appgen.sc_repeat do
        match Interp.call t st.Appgen.sc_method st.Appgen.sc_args with
        | Interp.Fault m ->
          failwith
            (Printf.sprintf "pgo bench script fault in %s: %s"
               (Calibro_dex.Dex_ir.method_ref_to_string st.Appgen.sc_method)
               m)
        | _ -> ()
      done)
    script;
  t

let cycles_of_bytes oat_bytes script =
  match Oat_file.of_bytes (Bytes.of_string oat_bytes) with
  | Error e -> failwith ("pgo bench: served OAT does not parse: " ^ e)
  | Ok oat -> Interp.cycles (run_script oat script)

let expect_built what = function
  | Protocol.Built { oat; _ } -> oat
  | Protocol.Rejected rej ->
    failwith
      (Printf.sprintf "pgo bench %s rejected: %s" what
         (Protocol.rejection_to_string rej))
  | Protocol.Dict_info _ | Protocol.Report_ack _ ->
    failwith ("pgo bench " ^ what ^ " answered a non-build response")

(* [?shelve] re-runs the whole loop under a shelve-enabled config: every
   request (and both in-process oracles) carries the coverage threshold,
   so the daemon serves shelved builds, the drift re-link re-derives the
   shelving plan from the *new* regime's profile (unshelving methods
   that turned hot), and the byte/monotonicity contracts must hold
   unchanged. `bench train` gates this composition. *)
let measure ?shelve () : result =
  let generated = Appgen.generate Apps.kuaishou in
  let apk = generated.Appgen.app in
  let script = generated.Appgen.app_script in
  let half = List.length script / 2 in
  let script_old = weighted script (fun i -> if i >= half then 16 else 1)
  and script_new = weighted script (fun i -> if i < half then 16 else 1) in
  (* Profiles come from the simulator, like Figure 6's workflow. *)
  let base = Pipeline.build ~cache:None ~config:Config.baseline apk in
  let prof s = Profile.to_string (Profile.of_interp (run_script base.Pipeline.b_oat s)) in
  let prof_old = prof script_old and prof_new = prof script_new in
  let config =
    match Config.of_string "pl2" with Ok c -> c | Error e -> failwith e
  in
  let dexsim = Calibro_dex.Dex_text.to_string apk in
  let digest = Chash.string dexsim in
  let rq p =
    { Protocol.rq_config = config;
      rq_dexsim = dexsim;
      rq_profile = Some p;
      rq_deadline_ms = None;
      rq_dict = None;
      rq_shelve = shelve }
  in
  (* The oracles, computed before the server exists. *)
  let expected_old =
    expect_built "old oracle" (Worker.build_response ~cache:None (rq prof_old))
  and expected_new =
    expect_built "new oracle" (Worker.build_response ~cache:None (rq prof_new))
  in
  if String.equal expected_old expected_new then
    failwith
      "pgo bench: the two regimes build identical bytes — no drift to measure";
  let stale_cycles = cycles_of_bytes expected_old script_new
  and fresh_cycles = cycles_of_bytes expected_new script_new in
  (* The served loop. *)
  let pgo = Pgo.Manager.create () in
  let socket =
    Printf.sprintf "%s/calibro-bench-pgo-%d.sock"
      (Filename.get_temp_dir_name ()) (Unix.getpid ())
  in
  let endpoint = Transport.Unix_socket { path = socket } in
  let server =
    Server.create
      { (Server.default_config ~endpoint) with
        Server.workers = 3;
        cache = Some (Calibro_cache.Cache.create ());
        pgo = Some pgo }
  in
  let errors = ref 0 in
  let build () =
    match Client.request ~endpoint (rq prof_old) with
    | Ok (Protocol.Built { oat; _ }) -> Some oat
    | Ok _ | Error _ -> incr errors; None
  in
  let report p =
    match
      Client.report ~endpoint { Protocol.pr_app = digest; pr_profile = p }
    with
    | Ok (_, relink) -> relink
    | Error _ -> incr errors; false
  in
  let reports = ref 0 in
  let send p =
    incr reports;
    report p
  in
  let first_serve_old =
    match build () with
    | Some oat -> String.equal oat expected_old
    | None -> false
  in
  (* steady state, then the regime flips *)
  let steady_quiet = ref true in
  for _ = 1 to steady_reports do
    if send prof_old then steady_quiet := false
  done;
  let acked = ref false and sent = ref 0 in
  while (not !acked) && !sent < max_drift_reports do
    incr sent;
    if send prof_new then acked := true
  done;
  (* the relink runs through the worker pool; poll the same Build until
     the served bytes flip *)
  let flipped = ref None and tries = ref 0 in
  while !flipped = None && !tries < 200 do
    incr tries;
    (match build () with
     | Some oat when not (String.equal oat expected_old) -> flipped := Some oat
     | _ -> Thread.delay 0.025)
  done;
  (* once flipped, it must stay flipped *)
  let monotone = ref (!flipped <> None) in
  for _ = 1 to 3 do
    match (build (), !flipped) with
    | Some oat, Some f -> if not (String.equal oat f) then monotone := false
    | None, _ | _, None -> monotone := false
  done;
  (* read the tallies before the drain mirrors-and-zeroes them *)
  let relinks, hits =
    match Pgo.Manager.totals pgo with
    | [ (_, t) ] -> (t.Pgo.p_relinks, t.Pgo.p_relink_cache_hits)
    | _ -> (0, 0)
  in
  Server.request_drain server;
  Server.drain server;
  let byte_ok, relinked_cycles =
    match !flipped with
    | Some oat when String.equal oat expected_new ->
      (true, cycles_of_bytes oat script_new)
    | Some oat -> (false, cycles_of_bytes oat script_new)
    | None -> (false, stale_cycles)
  in
  { pg_app = apk.Calibro_dex.Dex_ir.apk_name;
    pg_reports = !reports;
    pg_relinks = relinks;
    pg_relink_cache_hits = hits;
    pg_flip_monotone = first_serve_old && !steady_quiet && !monotone;
    pg_byte_ok = byte_ok;
    pg_stale_cycles = stale_cycles;
    pg_relinked_cycles = relinked_cycles;
    pg_fresh_cycles = fresh_cycles;
    pg_errors = !errors }

let report r =
  Printf.printf
    "  %s: %d reports, %d relink(s), %d relink cache hits, %d errors\n"
    r.pg_app r.pg_reports r.pg_relinks r.pg_relink_cache_hits r.pg_errors;
  Printf.printf "  served flip %s, refreshed bytes %s\n"
    (if r.pg_flip_monotone then "monotone (old -> new, once)" else "BROKEN")
    (if r.pg_byte_ok then "identical to the in-process drifted build"
     else "DIFFER");
  Printf.printf
    "  drifted script: stale %d cycles, re-linked %d, fresh %d\n"
    r.pg_stale_cycles r.pg_relinked_cycles r.pg_fresh_cycles;
  Printf.printf
    "  degradation vs fresh: stale +%.2f%%, re-linked +%.2f%% (Table 7 \
     envelope %.1f%%)\n%!"
    (stale_degradation_pct r) (relink_degradation_pct r) table7_envelope_pct

let section r =
  Json.Obj
    [ ("app", Json.Str r.pg_app);
      ("reports", Json.Int r.pg_reports);
      ("relinks", Json.Int r.pg_relinks);
      ("relink_cache_hits", Json.Int r.pg_relink_cache_hits);
      ("flip_monotone", Json.Bool r.pg_flip_monotone);
      ("byte_equal", Json.Bool r.pg_byte_ok);
      ("stale_cycles", Json.Int r.pg_stale_cycles);
      ("relinked_cycles", Json.Int r.pg_relinked_cycles);
      ("fresh_cycles", Json.Int r.pg_fresh_cycles);
      ("stale_degradation_pct", Json.Float (stale_degradation_pct r));
      ("relink_degradation_pct", Json.Float (relink_degradation_pct r)) ]
