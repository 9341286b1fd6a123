(* lib/obs: spans, sharded metrics, JSON emit/parse, trace export.

   Every test resets the global registry first; Alcotest runs cases
   sequentially in one process, so resets cannot race other suites. *)

module Obs = Calibro_obs.Obs
module Json = Calibro_obs.Json
module Clock = Calibro_obs.Clock

let find_event name =
  List.find_opt (fun (e : Obs.span_event) -> e.Obs.ev_name = name)

let end_ns (e : Obs.span_event) = Int64.add e.Obs.ev_start_ns e.Obs.ev_dur_ns

(* ---- Clock --------------------------------------------------------------- *)

let test_clock_monotonic () =
  let prev = ref (Clock.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Clock.now_ns () in
    if Int64.compare t !prev < 0 then
      Alcotest.failf "clock went backwards: %Ld -> %Ld" !prev t;
    prev := t
  done

(* ---- Span nesting and ordering ------------------------------------------- *)

let test_span_nesting () =
  Obs.reset ();
  let r =
    Obs.span "outer" (fun () ->
        Obs.span "inner1" (fun () -> ignore (Sys.opaque_identity (ref 1)));
        Obs.span "inner2" (fun () -> ());
        17)
  in
  Alcotest.(check int) "span returns the body's value" 17 r;
  let evs = Obs.events () in
  Alcotest.(check int) "three spans recorded" 3 (List.length evs);
  let outer = Option.get (find_event "outer" evs) in
  let i1 = Option.get (find_event "inner1" evs) in
  let i2 = Option.get (find_event "inner2" evs) in
  Alcotest.(check int) "outer depth" 0 outer.Obs.ev_depth;
  Alcotest.(check int) "inner1 depth" 1 i1.Obs.ev_depth;
  Alcotest.(check int) "inner2 depth" 1 i2.Obs.ev_depth;
  Alcotest.(check bool) "inner1 starts after outer" true
    (i1.Obs.ev_start_ns >= outer.Obs.ev_start_ns);
  Alcotest.(check bool) "inner1 ends before outer ends" true
    (end_ns i1 <= end_ns outer);
  Alcotest.(check bool) "inner2 nested in outer" true
    (i2.Obs.ev_start_ns >= outer.Obs.ev_start_ns
     && end_ns i2 <= end_ns outer);
  Alcotest.(check bool) "inner1 precedes inner2" true
    (end_ns i1 <= i2.Obs.ev_start_ns);
  (* events () is sorted by start time *)
  Alcotest.(check (list string)) "start order" [ "outer"; "inner1"; "inner2" ]
    (List.map (fun (e : Obs.span_event) -> e.Obs.ev_name) evs)

let test_span_records_on_raise () =
  Obs.reset ();
  (try
     Obs.span "raiser" (fun () ->
         Obs.span "deep" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let evs = Obs.events () in
  Alcotest.(check int) "both spans recorded" 2 (List.length evs);
  (* depth tracking must have unwound: a fresh span is top-level again *)
  Obs.span "after" (fun () -> ());
  let after = Option.get (find_event "after" (Obs.events ())) in
  Alcotest.(check int) "depth unwound after exception" 0 after.Obs.ev_depth

(* ---- Counter aggregation across domains ----------------------------------- *)

let test_counter_across_domains () =
  Obs.reset ();
  let name = "obs.test.counter" in
  let domains =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Obs.Counter.incr name
            done))
  in
  List.iter Domain.join domains;
  Obs.Counter.add name 5;
  Alcotest.(check int) "summed over 2 worker shards + main" 2005
    (Obs.Counter.value name)

(* Counters are live-safe: systhreads of several domains add to one name
   while a reader polls it, and the total is exact. *)
let test_counter_threads_and_domains () =
  Obs.reset ();
  let name = "obs.test.live" and per_thread = 20_000 and threads = 3 in
  let adders () =
    List.init threads (fun _ ->
        Thread.create
          (fun () ->
            for i = 1 to per_thread do
              Obs.Counter.incr name;
              if i mod 256 = 0 then Thread.yield ()
            done)
          ())
  in
  let running = Atomic.make true and reads = ref [] in
  let reader =
    Thread.create
      (fun () ->
        while Atomic.get running do
          reads := Obs.Counter.value name :: !reads;
          Thread.yield ()
        done)
      ()
  in
  let domains =
    List.init 2 (fun _ -> Domain.spawn (fun () -> List.iter Thread.join (adders ())))
  in
  List.iter Thread.join (adders ());
  List.iter Domain.join domains;
  Atomic.set running false;
  Thread.join reader;
  let total = 3 * threads * per_thread in
  Alcotest.(check int) "every add counted once" total (Obs.Counter.value name);
  let reads = List.rev !reads in
  Alcotest.(check bool) "live reads were taken" true (reads <> []);
  Alcotest.(check bool) "live reads never decrease, never overshoot" true
    (fst
       (List.fold_left
          (fun (ok, prev) v -> (ok && v >= prev && v <= total, v))
          (true, 0) reads))

let test_span_tids_per_domain () =
  Obs.reset ();
  Obs.span "main-span" (fun () -> ());
  let d =
    Domain.spawn (fun () -> Obs.span "worker-span" (fun () -> ()))
  in
  Domain.join d;
  let evs = Obs.events () in
  let tid name = (Option.get (find_event name evs)).Obs.ev_tid in
  Alcotest.(check bool) "worker span carries its own domain id" true
    (tid "main-span" <> tid "worker-span")

(* ---- Histogram percentiles ------------------------------------------------ *)

let test_histogram_percentiles () =
  Obs.reset ();
  let name = "obs.test.hist" in
  (* split observations across two shards to exercise the merge *)
  let d =
    Domain.spawn (fun () ->
        for i = 51 to 100 do
          Obs.Histogram.observe name (float_of_int i)
        done)
  in
  for i = 1 to 50 do
    Obs.Histogram.observe name (float_of_int i)
  done;
  Domain.join d;
  match Obs.Histogram.summary name with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
    Alcotest.(check int) "count" 100 s.Obs.Histogram.count;
    Alcotest.(check (float 1e-9)) "min" 1.0 s.Obs.Histogram.min;
    Alcotest.(check (float 1e-9)) "max" 100.0 s.Obs.Histogram.max;
    Alcotest.(check (float 1e-9)) "mean" 50.5 s.Obs.Histogram.mean;
    let within lo hi v = v >= lo && v <= hi in
    Alcotest.(check bool) "p50" true (within 50.0 51.0 s.Obs.Histogram.p50);
    Alcotest.(check bool) "p90" true (within 90.0 91.0 s.Obs.Histogram.p90);
    Alcotest.(check bool) "p99" true (within 99.0 100.0 s.Obs.Histogram.p99)

(* ---- JSON ------------------------------------------------------------------ *)

let test_json_roundtrip_values () =
  let doc =
    Json.Obj
      [ ("i", Json.Int (-42));
        ("f", Json.Float 2.5);
        ("s", Json.Str "plain");
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
        ("o", Json.Obj [ ("nested", Json.Str "yes") ]) ]
  in
  (match Json.parse (Json.to_string doc) with
   | Error e -> Alcotest.failf "compact reparse: %s" e
   | Ok doc' -> Alcotest.(check bool) "compact round-trips" true (doc = doc'));
  match Json.parse (Json.to_string ~pretty:true doc) with
  | Error e -> Alcotest.failf "pretty reparse: %s" e
  | Ok doc' -> Alcotest.(check bool) "pretty round-trips" true (doc = doc')

let test_json_rejects_garbage () =
  List.iter
    (fun src ->
      match Json.parse src with
      | Ok _ -> Alcotest.failf "accepted %S" src
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_json_escaping_arbitrary_span_names () =
  Obs.reset ();
  let nasty = "we\"ird\\name\nwith\ttabs \x01 and caf\xc3\xa9" in
  Obs.span nasty ~args:(fun () -> [ ("k\"ey", Json.Str "v\\al") ]) (fun () -> ());
  let trace = Json.to_string (Obs.trace_json ()) in
  match Json.parse trace with
  | Error e -> Alcotest.failf "trace with nasty names does not parse: %s" e
  | Ok doc ->
    let events =
      Option.get (Option.bind (Json.member "traceEvents" doc) Json.get_list)
    in
    let names =
      List.filter_map
        (fun e -> Option.bind (Json.member "name" e) Json.get_str)
        events
    in
    Alcotest.(check bool) "escaped name survives the round-trip" true
      (List.mem nasty names)

(* ---- Chrome trace round-trip over the real pipeline ------------------------ *)

let test_trace_roundtrip_pipeline () =
  Obs.reset ();
  let apk =
    (Calibro_workload.Appgen.generate Calibro_workload.Apps.demo)
      .Calibro_workload.Appgen.app
  in
  (* ~cache:None: the asserted spans are the *cold* build's trace shape —
     under CALIBRO_CACHE_DIR a detection-cache hit would skip tree_build *)
  ignore
    (Calibro_core.Pipeline.build ~cache:None
       ~config:(Calibro_core.Config.cto_ltbo_pl ~k:2 ()) apk);
  let trace = Json.to_string ~pretty:true (Obs.trace_json ()) in
  match Json.parse trace with
  | Error e -> Alcotest.failf "emitted trace does not parse: %s" e
  | Ok doc ->
    let events =
      Option.get (Option.bind (Json.member "traceEvents" doc) Json.get_list)
    in
    Alcotest.(check bool) "trace has events" true (events <> []);
    List.iter
      (fun e ->
        List.iter
          (fun field ->
            if Json.member field e = None then
              Alcotest.failf "event missing %s" field)
          [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid" ])
      events;
    let names =
      List.filter_map
        (fun e -> Option.bind (Json.member "name" e) Json.get_str)
        events
    in
    (* nested spans from all three layers of the build *)
    List.iter
      (fun expected ->
        Alcotest.(check bool) (expected ^ " span present") true
          (List.mem expected names))
      [ "pipeline.build"; "pipeline.ltbo"; "ltbo.detect"; "ltbo.tree_build";
        "plopti.detect_parallel"; "link.run"; "link.relocate" ];
    (* the phase spans nest under pipeline.build *)
    let evs = Obs.events () in
    let build = Option.get (find_event "pipeline.build" evs) in
    let ltbo = Option.get (find_event "pipeline.ltbo" evs) in
    Alcotest.(check bool) "ltbo nests inside build" true
      (ltbo.Obs.ev_start_ns >= build.Obs.ev_start_ns
       && end_ns ltbo <= end_ns build
       && ltbo.Obs.ev_depth > build.Obs.ev_depth)

(* The one LTBO driver takes the global-tree path at K = 1: a CTO+LTBO
   build never enters the PlOpti domain pool, so it opens no plopti.*
   span (the PlOpti(2) build above still opens plopti.detect_parallel). *)
let test_global_tree_opens_no_plopti_span () =
  Obs.reset ();
  let apk =
    (Calibro_workload.Appgen.generate Calibro_workload.Apps.demo)
      .Calibro_workload.Appgen.app
  in
  ignore
    (Calibro_core.Pipeline.build ~cache:None
       ~config:Calibro_core.Config.cto_ltbo apk);
  let names = List.map (fun e -> e.Obs.ev_name) (Obs.events ()) in
  Alcotest.(check bool) "ltbo.detect span present" true
    (List.mem "ltbo.detect" names);
  Alcotest.(check (list string)) "no plopti.* span" []
    (List.filter (String.starts_with ~prefix:"plopti.") names)

(* ---- Metrics snapshot ------------------------------------------------------- *)

let test_metrics_json () =
  Obs.reset ();
  Obs.Counter.add "obs.test.c" 3;
  Obs.Gauge.set "obs.test.g" 1.5;
  Obs.Histogram.observe "obs.test.h" 2.0;
  Obs.span "obs.test.span" (fun () -> ());
  let doc = Obs.metrics_json ~extra:[ ("extra", Json.Bool true) ] () in
  (match Json.parse (Json.to_string ~pretty:true doc) with
   | Error e -> Alcotest.failf "metrics does not reparse: %s" e
   | Ok _ -> ());
  let counter =
    Option.bind (Json.member "counters" doc) (Json.member "obs.test.c")
  in
  Alcotest.(check bool) "counter exported" true (counter = Some (Json.Int 3));
  let gauge =
    Option.bind (Json.member "gauges" doc) (Json.member "obs.test.g")
  in
  Alcotest.(check bool) "gauge exported" true (gauge = Some (Json.Float 1.5));
  let hist_count =
    Option.bind (Json.member "histograms" doc) (Json.member "obs.test.h")
    |> fun h -> Option.bind h (Json.member "count")
  in
  Alcotest.(check bool) "histogram exported" true
    (hist_count = Some (Json.Int 1));
  let span_count =
    Option.bind (Json.member "spans" doc) (Json.member "obs.test.span")
    |> fun s -> Option.bind s (Json.member "count")
  in
  Alcotest.(check bool) "span aggregate exported" true
    (span_count = Some (Json.Int 1));
  Alcotest.(check bool) "extra section appended" true
    (Json.member "extra" doc = Some (Json.Bool true))

let test_pipeline_timings_match_spans () =
  Obs.reset ();
  let apk =
    (Calibro_workload.Appgen.generate Calibro_workload.Apps.demo)
      .Calibro_workload.Appgen.app
  in
  let b =
    Calibro_core.Pipeline.build ~config:Calibro_core.Config.cto_ltbo apk
  in
  (* b_timings stays the derived per-phase view: one span per phase with a
     matching name and a near-identical duration *)
  let evs = Obs.events () in
  List.iter
    (fun (phase, seconds) ->
      match find_event ("pipeline." ^ phase) evs with
      | None -> Alcotest.failf "no span for phase %s" phase
      | Some e ->
        let span_s = Int64.to_float e.Obs.ev_dur_ns /. 1e9 in
        if Float.abs (span_s -. seconds) > 0.05 then
          Alcotest.failf "phase %s: span %.4fs vs timing %.4fs" phase span_s
            seconds)
    b.Calibro_core.Pipeline.b_timings;
  Alcotest.(check bool) "timings non-negative (monotonic clock)" true
    (List.for_all (fun (_, s) -> s >= 0.0) b.Calibro_core.Pipeline.b_timings)

let suite =
  [ Alcotest.test_case "monotonic clock never goes backwards" `Quick
      test_clock_monotonic;
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "span records on raise and unwinds depth" `Quick
      test_span_records_on_raise;
    Alcotest.test_case "counters aggregate across 2 worker domains" `Quick
      test_counter_across_domains;
    Alcotest.test_case "spans carry per-domain tids" `Quick
      test_span_tids_per_domain;
    Alcotest.test_case "histogram percentiles over merged shards" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "json round-trips values" `Quick
      test_json_roundtrip_values;
    Alcotest.test_case "json rejects malformed input" `Quick
      test_json_rejects_garbage;
    Alcotest.test_case "arbitrary span names are escaped" `Quick
      test_json_escaping_arbitrary_span_names;
    Alcotest.test_case "chrome trace of a real build parses, nested" `Quick
      test_trace_roundtrip_pipeline;
    Alcotest.test_case "a global-tree build opens no plopti span" `Quick
      test_global_tree_opens_no_plopti_span;
    Alcotest.test_case "metrics snapshot exports every family" `Quick
      test_metrics_json;
    Alcotest.test_case "b_timings is a view of the phase spans" `Quick
      test_pipeline_timings_match_spans;
    Alcotest.test_case "counters are exact under threads and domains" `Quick
      test_counter_threads_and_domains ]
