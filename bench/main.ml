(* The benchmark entry point: regenerates every table and figure of the
   paper's evaluation. With no arguments, runs the full matrix; pass
   `table1`..`table7`, `fig2`..`fig6`, `stats`, `bechamel` or
   `crosscheck` to run one experiment.

   Observability: every run records lib/obs spans and metrics; `--trace
   FILE` writes a Chrome trace_event JSON (open in about://tracing or
   Perfetto), `--metrics FILE` the flat metrics JSON CI consumes.

   The CI perf gate is the row table `Harness.gate_rows`, folded by
   bench/gate.ml: `baseline` measures and writes every row's bound to
   bench/baseline.json (committed); `gate` re-measures and fails (exit 1)
   on any row outside its committed bound, any baseline key no row
   reads, or any of the measurement modules' correctness failures. *)

module Obs = Calibro_obs.Obs

let usage () =
  print_endline
    "usage: main.exe [SUBCOMMAND] [--trace FILE] [--metrics FILE]\n\
    \                [--baseline FILE] [--out FILE]\n\
     subcommands:\n\
    \  all (default)    every table, figure, ablation and micro-benchmark\n\
    \  table1..table7, fig2..fig6, stats, ablation, bechamel, crosscheck\n\
    \  detect           detection-throughput microbenchmark (largest app)\n\
    \  parse            cold vs memoized .dexsim parse of one Kuaishou\n\
    \                   mutant; exit 1 if the two parses differ\n\
    \  incr             cold vs warm incremental rebuild after a one-method\n\
    \                   edit (largest app); exit 1 if warm bytes differ\n\
    \  serve            concurrent served-build throughput through the\n\
    \                   calibrod service path; exit 1 if any served OAT\n\
    \                   differs from its in-process build\n\
    \  fleet            aggregate throughput of 3 calibrod shards behind\n\
    \                   the consistent-hash router, with one shard drained\n\
    \                   mid-run; exit 1 on byte divergence or if the drain\n\
    \                   exercised no failover\n\
    \  store            fleet-wide bytes saved by the shared outline\n\
    \                   dictionary vs per-app outlining over the six apps;\n\
    \                   exit 1 unless sharing saves bytes net of the\n\
    \                   dictionary image and every dict-bound app runs\n\
    \                   byte-faithfully in the VM\n\
    \  pgo              drift detection + incremental re-link through a live\n\
    \                   calibrod: stream drifted profiles, require exactly\n\
    \                   one re-link, the served OAT byte-identical to the\n\
    \                   in-process drifted build, and the drifted script's\n\
    \                   cycles back inside the Table 7 envelope\n\
    \  train            shelve x outline size/cycle frontier over the six\n\
    \                   apps plus a release-train replay through a 3-shard\n\
    \                   fleet and a shelve-enabled PGO drift loop; exit 1\n\
    \                   on any VM divergence between shelved and unshelved\n\
    \                   builds, byte divergence in the fleet, or a broken\n\
    \                   shelved re-link\n\
    \  digest           per-app, per-config MD5 of the OAT text segment\n\
    \  baseline         measure and write every gate row's bound (--out,\n\
    \                   default bench/baseline.json); exit 1, writing\n\
    \                   nothing, while any correctness check fails\n\
    \  gate             hold a fresh measurement against every row of the\n\
    \                   committed baseline (--baseline, default\n\
    \                   bench/baseline.json) and every correctness check;\n\
    \                   exit 1 on any failure\n\
     flags:\n\
    \  --trace FILE     write a Chrome trace_event JSON of the run\n\
    \  --metrics FILE   write the flat metrics JSON (counters, gauges,\n\
    \                   histograms, per-span durations, bench section)"

let () =
  let trace = ref None in
  let metrics = ref None in
  let baseline = ref "bench/baseline.json" in
  let out = ref None in
  let rec parse positional = function
    | [] -> List.rev positional
    | "--trace" :: f :: rest ->
      trace := Some f;
      parse positional rest
    | "--metrics" :: f :: rest ->
      metrics := Some f;
      parse positional rest
    | "--baseline" :: f :: rest ->
      baseline := f;
      parse positional rest
    | "--out" :: f :: rest ->
      out := Some f;
      parse positional rest
    | ("-h" | "--help") :: _ ->
      usage ();
      exit 0
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
      Printf.eprintf "unknown flag %s\n" a;
      usage ();
      exit 2
    | a :: rest -> parse (a :: positional) rest
  in
  let which =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> "all"
    | [ w ] -> w
    | _ ->
      usage ();
      exit 2
  in
  (* The bench section of the metrics document, filled by the subcommands
     that measure per-app sizes. *)
  let bench_section = ref None in
  let exit_code = ref 0 in
  let check failures =
    List.iter (Printf.printf "FAIL: %s\n") failures;
    if failures <> [] then exit_code := 1
  in
  (* `bench <x>`: measure, print, exit 1 on any of the module's failures *)
  let bench title measure report failures =
    print_endline ("== bench " ^ title ^ " ==");
    let r = measure () in
    report r;
    check (failures r)
  in
  (match which with
   | "fig2" -> Harness.figure2 ()
   | "crosscheck" -> Harness.crosscheck ()
   | "digest" -> Harness.digests ()
   | "detect" -> Harness.detect_bench ()
   | "parse" -> check (Harness.parse_bench ())
   | "incr" ->
     bench "incr: incremental rebuild after a one-method edit (Kuaishou)"
       Harness.incr_measure Harness.incr_report Harness.incr_failures
   | "serve" ->
     bench "serve: concurrent builds through calibrod's service path"
       Serve.measure Serve.report Serve.failures
   | "fleet" ->
     bench "fleet: 3 calibrod shards behind the consistent-hash router"
       Serve.fleet_measure Serve.fleet_report Serve.fleet_failures
   | "store" ->
     bench "store: shared dictionary vs per-app outlining (6 apps)"
       Store.measure Store.report Store.failures
   | "pgo" ->
     bench "pgo: drift detection and incremental re-link through calibrod"
       Pgo_bench.measure Pgo_bench.report Pgo_bench.failures
   | "train" ->
     bench "train: shelve x outline frontier + release-train replay"
       Train_bench.measure Train_bench.report Train_bench.failures
   | "table2" -> Harness.table2 ()
   | "table3" -> Harness.table3 ()
   | "bechamel" -> Micro.benchmark ()
   | "ablation" ->
     Harness.ablation_k ();
     Harness.ablation_minlen ();
     Harness.ablation_cto_ltbo ();
     Harness.ablation_rounds ()
   | "baseline" ->
     check
       (Harness.write_baseline
          (match !out with Some f -> f | None -> "bench/baseline.json"))
   | "gate" ->
     print_endline "== CI perf gate: baseline rows + correctness checks ==";
     let section, failures = Harness.gate ~baseline_path:!baseline in
     bench_section := Some section;
     check failures;
     if failures = [] then print_endline "gate ok"
   | which ->
     let evals = List.map Harness.evaluate_app Calibro_workload.Apps.all in
     bench_section := Some (Harness.bench_json evals);
     let all = which = "all" in
     Harness.table3 ();
     if all || which = "table1" then Harness.table1 evals;
     if all then Harness.figure2 ();
     if all || which = "fig3" then Harness.figure3 evals;
     if all || which = "fig4" then Harness.figure4 evals;
     if all then Harness.table2 ();
     if all || which = "table4" then Harness.table4 evals;
     if all || which = "table5" then Harness.table5 evals;
     if all || which = "table6" then Harness.table6 evals;
     if all || which = "table7" then Harness.table7 evals;
     if all || which = "fig6" then Harness.figure6 evals;
     if all || which = "stats" then Harness.ltbo_stats evals;
     if all then begin
       Harness.ablation_k ();
       Harness.ablation_minlen ();
       Harness.ablation_cto_ltbo ();
       Harness.ablation_rounds ();
       print_endline "== Bechamel micro-benchmarks ==";
       Micro.benchmark ()
     end);
  let extra =
    match !bench_section with
    | Some section -> [ ("bench", section) ]
    | None -> []
  in
  Obs.export ~extra ~metrics:!metrics ~trace:!trace ();
  Option.iter (Printf.eprintf "[bench] metrics written to %s\n%!") !metrics;
  Option.iter (Printf.eprintf "[bench] trace written to %s\n%!") !trace;
  exit !exit_code
