(* The perf gate's two folds (bench/gate.ml) over a synthetic table with
   one row per kind and write rule: what `baseline` commits, that `check`
   passes the measurement it was written from, and that every row fails
   one step past its limit with a message naming it. The measured values
   keep every limit off a rounding tie, so "at the limit" passes. *)

module Json = Calibro_obs.Json
open Gate

let row measured committed kind = { measured; committed; kind }

let rows =
  [ row [ "app"; "text" ] [ "app"; "text" ] Exact;
    row [ "app"; "reduction" ] [ "app"; "reduction" ] (Near_floor 0.001);
    row [ "tput" ] [ "tput_floor" ] (Floor (Round (1. /. 3., 2), 0.75));
    row [ "p95" ] [ "p95_envelope" ] (Envelope (Round (3., 3), 1.25));
    row [ "ratio" ] [ "ratio_envelope" ] (Envelope (Pad 3, 1.));
    row [ "rate" ] [ "rate_floor" ] (Floor (Pad 3, 1.));
    row [ "degradation" ] [ "degradation_envelope" ] (Envelope (Const 4.6, 1.));
    row [ "saved" ] [ "saved_floor" ] (Floor (Same, 1.));
    row [ "fleet" ] [] (Same_run ([ "tput" ], 0.5)) ]

let doc kvs = List.fold_left (fun d (p, v) -> set p v d) (Json.Obj []) kvs

let measurement =
  [ ([ "app"; "text" ], Json.Int 1000);
    ([ "app"; "reduction" ], Json.Float 0.25);
    ([ "tput" ], Json.Float 24.);
    ([ "p95" ], Json.Float 0.5);
    ([ "ratio" ], Json.Float 2.0904);
    ([ "rate" ], Json.Float 0.9224);
    ([ "degradation" ], Json.Float 0.);
    ([ "saved" ], Json.Int 25528);
    ([ "fleet" ], Json.Float 12.) ]

let measured = doc measurement

let committed () =
  match baseline rows measured with
  | Ok b -> b
  | Error e -> Alcotest.fail (String.concat "; " e)

let with_value path v = doc (List.remove_assoc path measurement @ [ (path, v) ])

let names_all msg failures paths =
  List.iter
    (fun p ->
      if
        not
          (List.exists
             (fun f -> Astring.String.is_infix ~affix:(String.concat "." p) f)
             failures)
      then Alcotest.failf "%s: no failure names %s in [%s]" msg
             (String.concat "." p) (String.concat "; " failures))
    paths

let test_written () =
  Alcotest.(check string)
    "bounds"
    (Json.to_string
       (doc
          [ ([ "schema" ], Json.Int 1);
            ([ "app"; "text" ], Json.Int 1000);
            ([ "app"; "reduction" ], Json.Float 0.25);
            ([ "tput_floor" ], Json.Float 8.);
            ([ "p95_envelope" ], Json.Float 1.5);
            ([ "ratio_envelope" ], Json.Float 2.091);
            ([ "rate_floor" ], Json.Float 0.921);
            ([ "degradation_envelope" ], Json.Float 4.6);
            ([ "saved_floor" ], Json.Int 25528) ]))
    (Json.to_string (committed ()))

let test_round_trip () =
  let lines, failures = check rows ~measured ~baseline:(committed ()) in
  Alcotest.(check (list string)) "no failures" [] failures;
  Alcotest.(check int) "one line per row" (List.length rows) (List.length lines)

(* (measured path, value at the limit, value one step past it, row name) *)
let edges =
  [ ([ "app"; "text" ], Json.Int 1000, Json.Int 1001, [ "app"; "text" ]);
    ( [ "app"; "reduction" ], Json.Float 0.2495, Json.Float 0.2485,
      [ "app"; "reduction" ] );
    ([ "tput" ], Json.Float 6., Json.Float 5.99, [ "tput_floor" ]);
    ([ "p95" ], Json.Float 1.875, Json.Float 1.876, [ "p95_envelope" ]);
    ([ "ratio" ], Json.Float 2.091, Json.Float 2.092, [ "ratio_envelope" ]);
    ([ "rate" ], Json.Float 0.921, Json.Float 0.92, [ "rate_floor" ]);
    ( [ "degradation" ], Json.Float 4.6, Json.Float 4.61,
      [ "degradation_envelope" ] );
    ([ "saved" ], Json.Int 25528, Json.Int 25527, [ "saved_floor" ]);
    ([ "fleet" ], Json.Float 12., Json.Float 11.99, [ "fleet" ]) ]

let test_edges () =
  let b = committed () in
  List.iter
    (fun (path, at, past, name) ->
      let label = String.concat "." name in
      let _, ok = check rows ~measured:(with_value path at) ~baseline:b in
      Alcotest.(check (list string)) (label ^ " at its limit") [] ok;
      let _, bad = check rows ~measured:(with_value path past) ~baseline:b in
      Alcotest.(check int) (label ^ " past its limit") 1 (List.length bad);
      names_all label bad [ name ])
    edges

let test_missing () =
  let b = committed () in
  let tput = List.nth rows 2 in
  (* a bound the baseline lacks *)
  (match baseline (List.filter (( != ) tput) rows) measured with
   | Error e -> Alcotest.fail (String.concat "; " e)
   | Ok partial ->
     let _, failures = check rows ~measured ~baseline:partial in
     names_all "missing baseline key" failures [ [ "tput_floor" ] ]);
  (* a value the measurement lacks, in both folds *)
  let short = doc (List.remove_assoc [ "saved" ] measurement) in
  let _, failures = check rows ~measured:short ~baseline:b in
  names_all "missing measured key" failures [ [ "saved_floor" ]; [ "saved" ] ];
  (match baseline rows short with
   | Ok _ -> Alcotest.fail "baseline written from a partial measurement"
   | Error e -> names_all "partial measurement" e [ [ "saved" ] ]);
  (* the same-run anchor *)
  let no_anchor = doc (List.remove_assoc [ "tput" ] measurement) in
  let _, failures = check rows ~measured:no_anchor ~baseline:b in
  names_all "missing anchor" failures [ [ "fleet" ] ]

let test_unread_key () =
  let b = set [ "app"; "stale_bound" ] (Json.Int 7) (committed ()) in
  let _, failures = check rows ~measured ~baseline:b in
  Alcotest.(check int) "one failure" 1 (List.length failures);
  names_all "unread key" failures [ [ "app"; "stale_bound" ] ]

let suite =
  [ Alcotest.test_case "baseline writes each kind's bound" `Quick test_written;
    Alcotest.test_case "baseline then gate passes" `Quick test_round_trip;
    Alcotest.test_case "each kind fails one step past its limit" `Quick
      test_edges;
    Alcotest.test_case "missing keys fail with their path" `Quick test_missing;
    Alcotest.test_case "unread baseline key fails" `Quick test_unread_key ]
