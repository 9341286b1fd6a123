(* The PGO drift loop: profile algebra, the drift metric, and the
   hysteresis state machine (ISSUE 9's property battery).

   Everything here is pure or in-process — the wire-level Profile_report
   battery and the end-to-end convergence soak live in test_server.ml. *)

open Calibro_dex.Dex_ir
module Profile = Calibro_profile.Profile
module Pgo = Calibro_pgo.Pgo
module Config = Calibro_core.Config
module Request = Calibro_core.Request

let mref c m = { class_name = c; method_name = m }

let sample c m cycles = { Profile.s_method = mref c m; s_cycles = cycles }

(* ---- generators -------------------------------------------------------- *)

(* A canonical profile: distinct methods, strictly positive cycles,
   already in merge's order. Built from a pool small enough that two
   draws overlap (merge has real pointwise sums to do) but large enough
   that they also differ. *)
let gen_profile =
  let open QCheck.Gen in
  let pool =
    Array.init 12 (fun i ->
        mref (Printf.sprintf "com.App.C%d" (i mod 4)) (Printf.sprintf "m%d" i))
  in
  let* n = int_range 0 8 in
  let* picks = list_repeat n (int_range 0 (Array.length pool - 1)) in
  let* cycles = list_repeat n (int_range 1 10_000) in
  let tbl = Hashtbl.create 8 in
  List.iter2
    (fun i c ->
      let m = pool.(i) in
      Hashtbl.replace tbl m (c + Option.value ~default:0 (Hashtbl.find_opt tbl m)))
    picks cycles;
  (* canonicalise through merge with the empty profile *)
  return
    (Profile.merge []
       (Hashtbl.fold
          (fun m c acc -> { Profile.s_method = m; s_cycles = c } :: acc)
          tbl []))

let print_profile p = Profile.to_string p

let arb_profile = QCheck.make gen_profile ~print:print_profile

let profile_equal = ( = )

(* ---- merge is a commutative monoid on canonical profiles --------------- *)

let merge_commutative =
  QCheck.Test.make ~name:"merge a b = merge b a" ~count:500
    QCheck.(pair arb_profile arb_profile)
    (fun (a, b) -> profile_equal (Profile.merge a b) (Profile.merge b a))

let merge_associative =
  QCheck.Test.make ~name:"merge assoc" ~count:500
    QCheck.(triple arb_profile arb_profile arb_profile)
    (fun (a, b, c) ->
      profile_equal
        (Profile.merge (Profile.merge a b) c)
        (Profile.merge a (Profile.merge b c)))

let merge_identity =
  QCheck.Test.make ~name:"merge p [] = p" ~count:500 arb_profile (fun p ->
      profile_equal (Profile.merge p []) p
      && profile_equal (Profile.merge [] p) p)

let merge_mass =
  QCheck.Test.make ~name:"total (merge a b) = total a + total b" ~count:500
    QCheck.(pair arb_profile arb_profile)
    (fun (a, b) ->
      Profile.total (Profile.merge a b) = Profile.total a + Profile.total b)

(* ---- hot_set ----------------------------------------------------------- *)

let hot_set_coverage_monotone =
  QCheck.Test.make ~name:"hot_set grows with coverage" ~count:500
    QCheck.(pair arb_profile (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (p, (c1, c2)) ->
      let lo = min c1 c2 and hi = max c1 c2 in
      let h_lo = Profile.hot_set ~coverage:lo p
      and h_hi = Profile.hot_set ~coverage:hi p in
      List.length h_lo <= List.length h_hi
      && List.for_all (fun m -> List.mem m h_hi) h_lo)

let hot_set_permutation_invariant =
  (* The canonical order (cycles desc, then names) makes the cut
     deterministic: shuffling the sample list cannot change the hot set.
     This is the property that keeps pgo-built OATs byte-identical
     across runs — nothing in the selection may depend on hash-table
     iteration order. *)
  QCheck.Test.make ~name:"hot_set ignores sample order" ~count:500
    QCheck.(pair arb_profile (int_bound 1_000_000))
    (fun (p, seed) ->
      let st = Random.State.make [| seed |] in
      let arr = Array.of_list p in
      for i = Array.length arr - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      let shuffled = Profile.merge [] (Array.to_list arr) in
      Profile.hot_set shuffled = Profile.hot_set p)

let hot_set_tie_break () =
  (* Equal-cycle methods cut at the coverage edge must be picked by name,
     not construction order. *)
  let p_fwd =
    [ sample "a.A" "m" 100; sample "a.B" "m" 50; sample "a.C" "m" 50 ]
  in
  let p_rev =
    [ sample "a.C" "m" 50; sample "a.B" "m" 50; sample "a.A" "m" 100 ]
  in
  let h1 = Profile.hot_set ~coverage:0.75 (Profile.merge [] p_fwd)
  and h2 = Profile.hot_set ~coverage:0.75 (Profile.merge [] p_rev) in
  Alcotest.(check bool) "same hot set both orders" true (h1 = h2);
  (* 100 covers 0.5, +50 covers 0.75: exactly two methods, and of the two
     tied candidates B wins by name. *)
  Alcotest.(check (list string))
    "tie broken by name"
    [ "a.A.m"; "a.B.m" ]
    (List.map method_ref_to_string h1 |> List.sort compare)

let hot_set_zero_never_hot () =
  let p = Profile.merge [] [ sample "a.A" "m" 10; sample "a.B" "z" 0 ] in
  Alcotest.(check bool)
    "zero-cycle method never hot" false
    (List.mem (mref "a.B" "z") (Profile.hot_set ~coverage:1.0 p))

(* ---- the drift metric -------------------------------------------------- *)

let drift_identical () =
  let p = [ sample "a.A" "m1" 100; sample "a.A" "m2" 50 ] in
  let hot = [ mref "a.A" "m1"; mref "a.A" "m2" ] in
  Alcotest.(check (float 1e-9))
    "identical sets score 0" 0.0
    (Pgo.Drift.score ~profile:p ~served:hot ~current:hot)

let drift_disjoint () =
  let p =
    [ sample "a.A" "m1" 100; sample "a.A" "m2" 50; sample "a.B" "m3" 70 ]
  in
  Alcotest.(check (float 1e-9))
    "disjoint sets score 1" 1.0
    (Pgo.Drift.score ~profile:p
       ~served:[ mref "a.A" "m1" ]
       ~current:[ mref "a.A" "m2"; mref "a.B" "m3" ])

let drift_empty_union () =
  Alcotest.(check (float 1e-9))
    "no evidence scores 0" 0.0
    (Pgo.Drift.score ~profile:[] ~served:[] ~current:[])

let drift_monotone_in_displaced_mass () =
  (* served = {a,b,c}; displace methods one at a time, lightest first —
     each step moves strictly more execution mass, the score must be
     non-decreasing (strictly increasing here). *)
  let a = mref "x.X" "a"
  and b = mref "x.X" "b"
  and c = mref "x.X" "c"
  and d = mref "x.X" "d"
  and e = mref "x.X" "e"
  and f = mref "x.X" "f" in
  let profile =
    [ { Profile.s_method = a; s_cycles = 1000 };
      { Profile.s_method = b; s_cycles = 300 };
      { Profile.s_method = c; s_cycles = 100 };
      { Profile.s_method = d; s_cycles = 100 };
      { Profile.s_method = e; s_cycles = 300 };
      { Profile.s_method = f; s_cycles = 1000 } ]
  in
  let served = [ a; b; c ] in
  let score current = Pgo.Drift.score ~profile ~served ~current in
  let s0 = score [ a; b; c ] (* nothing displaced *)
  and s1 = score [ a; b; d ] (* c (100) -> d *)
  and s2 = score [ a; e; d ] (* + b (300) -> e *)
  and s3 = score [ f; e; d ] (* + a (1000) -> f *) in
  Alcotest.(check (float 1e-9)) "baseline 0" 0.0 s0;
  Alcotest.(check bool) "more mass, more drift" true (s0 < s1 && s1 < s2 && s2 < s3);
  Alcotest.(check (float 1e-9)) "all displaced scores 1" 1.0 s3

(* ---- the hysteresis state machine -------------------------------------- *)

let key =
  { Request.rq_config = Config.baseline;
    rq_dexsim = "dex";
    rq_profile = None;
    rq_deadline_ms = None;
    rq_dict = None;
    rq_shelve = None }

let base_profile =
  [ sample "a.A" "hot1" 5000;
    sample "a.A" "hot2" 3000;
    sample "a.B" "warm" 800;
    sample "a.B" "cold" 50 ]
  |> Profile.merge []

let report_ack m ~digest p =
  match Pgo.Manager.report m ~digest ~profile:p ~allow_relink:true with
  | Pgo.Manager.Unknown -> Alcotest.fail "report: Unknown for registered app"
  | Pgo.Manager.Ack { drift; relink } -> (drift, relink)

(* [tallies app] snapshots the pgo.<app>.* counters; the returned
   function reads one counter's delta since the snapshot. *)
let tallies app =
  let v what =
    Calibro_obs.Obs.Counter.value (Printf.sprintf "pgo.%s.%s" app what)
  in
  let base =
    List.map (fun w -> (w, v w))
      [ "reports"; "drift_detected"; "relinks"; "relink_cache_hits" ]
  in
  fun what -> v what - List.assoc what base

let hysteresis_noise_never_fires () =
  (* 500 seeded reports of the same regime with +/-1-cycle noise: the
     hot set cannot move, drift stays ~0, no relink may ever schedule. *)
  let delta = tallies "Noise" in
  let m = Pgo.Manager.create () in
  let digest = "app-digest" in
  Pgo.Manager.note_build m ~digest ~app:"Noise" ~key
    ~hot:(Profile.hot_set base_profile);
  let st = Random.State.make [| 0x5eed |] in
  for i = 1 to 500 do
    let noisy =
      List.map
        (fun (s : Profile.sample) ->
          { s with
            Profile.s_cycles =
              max 1 (s.Profile.s_cycles + Random.State.int st 3 - 1) })
        base_profile
      |> Profile.merge []
    in
    let drift, relink = report_ack m ~digest noisy in
    if relink <> None then
      Alcotest.failf "noise report %d scheduled a relink (drift %.3f)" i drift
  done;
  Alcotest.(check int) "reports counted" 500 (delta "reports");
  Alcotest.(check int) "no drift detected" 0 (delta "drift_detected");
  Alcotest.(check int) "no relinks" 0 (delta "relinks")

let drifted_profile =
  (* The regime flip: yesterday's cold tail is today's hot set. *)
  [ sample "a.B" "cold" 5000;
    sample "a.B" "warm" 3000;
    sample "a.A" "hot1" 40;
    sample "a.A" "hot2" 20 ]
  |> Profile.merge []

let hysteresis_requires_streak () =
  (* hysteresis = 3: two over-threshold reports must NOT schedule, the
     third must, and while that relink is in flight further reports must
     not schedule a second one. *)
  let m =
    Pgo.Manager.create
      ~config:{ Pgo.default_config with Pgo.hysteresis = 3 } ()
  in
  let digest = "app-digest" in
  Pgo.Manager.note_build m ~digest ~app:"Drift" ~key
    ~hot:(Profile.hot_set base_profile);
  let d1, r1 = report_ack m ~digest drifted_profile in
  let _, r2 = report_ack m ~digest drifted_profile in
  Alcotest.(check bool) "report 1 over threshold" true (d1 > 0.3);
  Alcotest.(check bool) "no relink before hysteresis" true
    (r1 = None && r2 = None);
  let _, r3 = report_ack m ~digest drifted_profile in
  (match r3 with
  | None -> Alcotest.fail "third over-threshold report must schedule"
  | Some k ->
    Alcotest.(check bool) "relink key keeps config+dex" true
      (k.Request.rq_config = key.Request.rq_config
      && k.Request.rq_dexsim = key.Request.rq_dexsim);
    (* the relink profile is the streak merge: 3x the drifted report,
       whose hot set is exactly the new regime's *)
    (match k.Request.rq_profile with
    | None -> Alcotest.fail "relink key must carry the streak profile"
    | Some s ->
      (match Profile.of_string s with
      | Error e -> Alcotest.failf "streak profile unparsable: %s" e
      | Ok p ->
        Alcotest.(check bool) "streak hot set = new regime's" true
          (Profile.hot_set p = Profile.hot_set drifted_profile))));
  let _, r4 = report_ack m ~digest drifted_profile in
  Alcotest.(check bool) "in-flight latch holds" true (r4 = None)

let hysteresis_resets_on_quiet () =
  (* an under-threshold report between two over-threshold ones breaks the
     streak: drift must be *consecutive* to relink. *)
  let m =
    Pgo.Manager.create
      ~config:{ Pgo.default_config with Pgo.hysteresis = 2 } ()
  in
  let digest = "app-digest" in
  Pgo.Manager.note_build m ~digest ~app:"Quiet" ~key
    ~hot:(Profile.hot_set base_profile);
  let _, r1 = report_ack m ~digest drifted_profile in
  Alcotest.(check bool) "streak 1, no relink" true (r1 = None);
  (* a heavy dose of the old regime drags the accumulator back *)
  let calm =
    Profile.merge []
      (List.map
         (fun (s : Profile.sample) ->
           { s with Profile.s_cycles = s.Profile.s_cycles * 50 })
         base_profile)
  in
  let d2, _ = report_ack m ~digest calm in
  Alcotest.(check bool) "calm report under threshold" true (d2 <= 0.3);
  let _, r3 = report_ack m ~digest drifted_profile in
  Alcotest.(check bool) "streak restarted: still no relink" true (r3 = None)

let report_unknown_app () =
  let m = Pgo.Manager.create () in
  match
    Pgo.Manager.report m ~digest:"never-built" ~profile:base_profile
      ~allow_relink:true
  with
  | Pgo.Manager.Unknown -> ()
  | Pgo.Manager.Ack _ -> Alcotest.fail "report for unknown digest must be Unknown"

let drain_never_schedules () =
  (* allow_relink:false (the draining server): reports still merge and
     count, but nothing may be scheduled even past the hysteresis. *)
  let m =
    Pgo.Manager.create
      ~config:{ Pgo.default_config with Pgo.hysteresis = 1 } ()
  in
  let digest = "app-digest" in
  let delta = tallies "Drain" in
  Pgo.Manager.note_build m ~digest ~app:"Drain" ~key
    ~hot:(Profile.hot_set base_profile);
  for _ = 1 to 5 do
    match
      Pgo.Manager.report m ~digest ~profile:drifted_profile
        ~allow_relink:false
    with
    | Pgo.Manager.Unknown -> Alcotest.fail "registered app"
    | Pgo.Manager.Ack { relink; _ } ->
      Alcotest.(check bool) "draining never schedules" true (relink = None)
  done;
  Alcotest.(check int) "reports still counted" 5 (delta "reports");
  Alcotest.(check bool) "drift still detected" true
    (delta "drift_detected" > 0)

let relink_failed_releases_latch () =
  let m =
    Pgo.Manager.create
      ~config:{ Pgo.default_config with Pgo.hysteresis = 1 } ()
  in
  let digest = "app-digest" in
  Pgo.Manager.note_build m ~digest ~app:"Retry" ~key
    ~hot:(Profile.hot_set base_profile);
  let _, r1 = report_ack m ~digest drifted_profile in
  Alcotest.(check bool) "first schedules" true (r1 <> None);
  let _, r2 = report_ack m ~digest drifted_profile in
  Alcotest.(check bool) "latched" true (r2 = None);
  Pgo.Manager.relink_failed m ~digest;
  let _, r3 = report_ack m ~digest drifted_profile in
  Alcotest.(check bool) "failure releases the latch" true (r3 <> None)

(* The deadline is the one request field that does not name the build:
   requests differing only in it share one manager entry — a second
   [note_build] neither resets the drift streak nor hides the refreshed
   OAT — and the relink the manager hands back carries no deadline. *)
let key_ignores_deadline () =
  let m =
    Pgo.Manager.create
      ~config:{ Pgo.default_config with Pgo.hysteresis = 3 } ()
  in
  let digest = "app-digest" in
  let delta = tallies "Deadline" in
  let with_deadline ms = { key with Request.rq_deadline_ms = Some ms } in
  let note k =
    Pgo.Manager.note_build m ~digest ~app:"Deadline" ~key:k
      ~hot:(Profile.hot_set base_profile)
  in
  note (with_deadline 100);
  let _, r1 = report_ack m ~digest drifted_profile in
  let _, r2 = report_ack m ~digest drifted_profile in
  Alcotest.(check bool) "no relink before hysteresis" true
    (r1 = None && r2 = None);
  (* the same build under another deadline: not a re-ship *)
  note (with_deadline 900);
  note key;
  let relink =
    match report_ack m ~digest drifted_profile with
    | _, Some k -> k
    | _, None -> Alcotest.fail "the streak survived: third report schedules"
  in
  Alcotest.(check (option int)) "relink carries no deadline" None
    relink.Request.rq_deadline_ms;
  Alcotest.(check bool) "relink keeps config+dex" true
    (relink.Request.rq_config = key.Request.rq_config
    && relink.Request.rq_dexsim = key.Request.rq_dexsim);
  let oat =
    (Calibro_core.Pipeline.build ~cache:None
       (Calibro_workload.Appgen.generate Calibro_workload.Apps.demo)
         .Calibro_workload.Appgen.app)
      .Calibro_core.Pipeline.b_oat
  in
  Pgo.Manager.relink_done m ~digest ~oat ~build_s:0.0
    ~hot:(Profile.hot_set drifted_profile) ~cache_hits:0;
  List.iter
    (fun k ->
      Alcotest.(check bool) "refreshed under any deadline" true
        (Pgo.Manager.refreshed m ~digest ~key:k <> None))
    [ key; with_deadline 1; with_deadline 100_000 ];
  Alcotest.(check bool) "another profile is another build" true
    (Pgo.Manager.refreshed m ~digest
       ~key:{ key with Request.rq_profile = Some "" }
     = None);
  Alcotest.(check int) "one relink" 1 (delta "relinks")

let suite =
  List.map (QCheck_alcotest.to_alcotest ~long:false)
    [ merge_commutative;
      merge_associative;
      merge_identity;
      merge_mass;
      hot_set_coverage_monotone;
      hot_set_permutation_invariant ]
  @ [ Alcotest.test_case "hot_set tie-break by name" `Quick hot_set_tie_break;
      Alcotest.test_case "hot_set never includes zero-cycle" `Quick
        hot_set_zero_never_hot;
      Alcotest.test_case "drift: identical = 0" `Quick drift_identical;
      Alcotest.test_case "drift: disjoint = 1" `Quick drift_disjoint;
      Alcotest.test_case "drift: empty union = 0" `Quick drift_empty_union;
      Alcotest.test_case "drift: monotone in displaced mass" `Quick
        drift_monotone_in_displaced_mass;
      Alcotest.test_case "hysteresis: 500 noisy reports never fire" `Quick
        hysteresis_noise_never_fires;
      Alcotest.test_case "hysteresis: needs a full streak" `Quick
        hysteresis_requires_streak;
      Alcotest.test_case "hysteresis: quiet report resets streak" `Quick
        hysteresis_resets_on_quiet;
      Alcotest.test_case "report: unknown app digest" `Quick report_unknown_app;
      Alcotest.test_case "drain merges but never schedules" `Quick
        drain_never_schedules;
      Alcotest.test_case "relink failure releases the latch" `Quick
        relink_failed_releases_latch;
      Alcotest.test_case "key ignores the deadline" `Quick
        key_ignores_deadline ]
