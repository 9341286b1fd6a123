type args = (string * Json.t) list

type span_event = {
  ev_name : string;
  ev_cat : string;
  ev_tid : int;
  ev_start_ns : int64;
  ev_dur_ns : int64;
  ev_depth : int;
  ev_args : args;
}

(* Bounds: a long fuzz run performs thousands of builds; without a cap the
   event buffers would dominate the heap. Dropped events are counted and
   surfaced in the metrics document. *)
let event_cap = 262_144
let sample_cap = 65_536

type hist_shard = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  mutable h_samples : float list;  (* newest first, capped at [sample_cap] *)
  mutable h_retained : int;
}

(* One span and histogram shard per domain. Single writer (the owning
   domain); readers are the snapshot functions, which by contract run
   only when no worker domain is live. Counters are not sharded. *)
type buf = {
  tid : int;
  mutable events : span_event list;  (* newest first *)
  mutable n_events : int;
  mutable dropped : int;
  mutable depth : int;
  hists : (string, hist_shard) Hashtbl.t;
}

let registry_lock = Mutex.create ()
let bufs : buf list ref = ref []
let gauges : (string, float) Hashtbl.t = Hashtbl.create 16
let epoch_ns = Clock.now_ns ()

let buf_key : buf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        { tid = (Domain.self () :> int);
          events = [];
          n_events = 0;
          dropped = 0;
          depth = 0;
          hists = Hashtbl.create 16 }
      in
      Mutex.lock registry_lock;
      bufs := b :: !bufs;
      Mutex.unlock registry_lock;
      b)

let my_buf () = Domain.DLS.get buf_key

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

(* ---- Spans -------------------------------------------------------------- *)

let record b ev =
  if b.n_events >= event_cap then b.dropped <- b.dropped + 1
  else begin
    b.events <- ev :: b.events;
    b.n_events <- b.n_events + 1
  end

let span ?(cat = "calibro") ?(args = fun () -> []) name f =
  let b = my_buf () in
  let depth = b.depth in
  b.depth <- depth + 1;
  let t0 = Clock.now_ns () in
  let finish () =
    let t1 = Clock.now_ns () in
    b.depth <- depth;
    record b
      { ev_name = name;
        ev_cat = cat;
        ev_tid = b.tid;
        ev_start_ns = t0;
        ev_dur_ns = Int64.sub t1 t0;
        ev_depth = depth;
        ev_args = args () }
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

(* ---- Counters ----------------------------------------------------------- *)

(* One process-wide atomic cell per name. The name table is an immutable
   map published through an atomic, so lookups take no lock; only the
   first use of a name takes [registry_lock] to extend it. *)
module Counter = struct
  module M = Map.Make (String)

  let cells : int Atomic.t M.t Atomic.t = Atomic.make M.empty

  let cell name =
    match M.find_opt name (Atomic.get cells) with
    | Some c -> c
    | None ->
      locked (fun () ->
          let m = Atomic.get cells in
          match M.find_opt name m with
          | Some c -> c
          | None ->
            let c = Atomic.make 0 in
            Atomic.set cells (M.add name c m);
            c)

  let add name n = ignore (Atomic.fetch_and_add (cell name) n)
  let incr name = add name 1

  let value name =
    match M.find_opt name (Atomic.get cells) with
    | Some c -> Atomic.get c
    | None -> 0

  let all () =
    M.bindings (Atomic.get cells) |> List.map (fun (k, c) -> (k, Atomic.get c))
end

(* ---- Gauges ------------------------------------------------------------- *)

module Gauge = struct
  let set name v = locked (fun () -> Hashtbl.replace gauges name v)
  let value name = locked (fun () -> Hashtbl.find_opt gauges name)
end

(* ---- Histograms --------------------------------------------------------- *)

module Histogram = struct
  let observe name v =
    let b = my_buf () in
    let sh =
      match Hashtbl.find_opt b.hists name with
      | Some sh -> sh
      | None ->
        let sh =
          { h_count = 0; h_sum = 0.0; h_min = infinity; h_max = neg_infinity;
            h_samples = []; h_retained = 0 }
        in
        Hashtbl.replace b.hists name sh;
        sh
    in
    sh.h_count <- sh.h_count + 1;
    sh.h_sum <- sh.h_sum +. v;
    if v < sh.h_min then sh.h_min <- v;
    if v > sh.h_max then sh.h_max <- v;
    if sh.h_retained < sample_cap then begin
      sh.h_samples <- v :: sh.h_samples;
      sh.h_retained <- sh.h_retained + 1
    end

  type summary = {
    count : int;
    min : float;
    max : float;
    mean : float;
    p50 : float;
    p90 : float;
    p99 : float;
  }

  let percentile sorted q =
    let n = Array.length sorted in
    if n = 0 then nan
    else
      let rank =
        int_of_float (Float.round (q *. float_of_int (n - 1)))
      in
      sorted.(max 0 (min (n - 1) rank))

  let summary name =
    locked (fun () ->
        let shards =
          List.filter_map (fun b -> Hashtbl.find_opt b.hists name) !bufs
        in
        if shards = [] then None
        else begin
          let count = List.fold_left (fun a s -> a + s.h_count) 0 shards in
          if count = 0 then None
          else begin
            let sum = List.fold_left (fun a s -> a +. s.h_sum) 0.0 shards in
            let mn = List.fold_left (fun a s -> Float.min a s.h_min) infinity shards in
            let mx =
              List.fold_left (fun a s -> Float.max a s.h_max) neg_infinity shards
            in
            let samples =
              Array.of_list (List.concat_map (fun s -> s.h_samples) shards)
            in
            Array.sort compare samples;
            Some
              { count;
                min = mn;
                max = mx;
                mean = sum /. float_of_int count;
                p50 = percentile samples 0.50;
                p90 = percentile samples 0.90;
                p99 = percentile samples 0.99 }
          end
        end)
end

(* ---- Snapshots ---------------------------------------------------------- *)

let events () =
  locked (fun () ->
      List.concat_map (fun b -> List.rev b.events) !bufs
      |> List.sort (fun a b -> compare a.ev_start_ns b.ev_start_ns))

let reset () =
  locked (fun () ->
      List.iter
        (fun b ->
          b.events <- [];
          b.n_events <- 0;
          b.dropped <- 0;
          Hashtbl.reset b.hists)
        !bufs;
      Atomic.set Counter.cells Counter.M.empty;
      Hashtbl.reset gauges)

let dropped_events () =
  locked (fun () -> List.fold_left (fun a b -> a + b.dropped) 0 !bufs)

(* Stable aggregation helper: fold [items] into an association list keyed
   by [key], preserving first-seen key order. *)
let group_by key items =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun item ->
      let k = key item in
      match Hashtbl.find_opt tbl k with
      | Some l -> l := item :: !l
      | None ->
        Hashtbl.replace tbl k (ref [ item ]);
        order := k :: !order)
    items;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

let span_aggregates evs =
  group_by (fun e -> e.ev_name) evs
  |> List.map (fun (name, es) ->
         let durs = List.map (fun e -> Int64.to_float e.ev_dur_ns /. 1e9) es in
         let total = List.fold_left ( +. ) 0.0 durs in
         let mx = List.fold_left Float.max 0.0 durs in
         let count = List.length es in
         ( name,
           Json.Obj
             [ ("count", Json.Int count);
               ("total_s", Json.Float total);
               ("mean_s", Json.Float (total /. float_of_int count));
               ("max_s", Json.Float mx) ] ))

let metrics_json ?(extra = []) () =
  let evs = events () in
  let counters = List.map (fun (k, v) -> (k, Json.Int v)) (Counter.all ()) in
  let gauge_fields =
    locked (fun () ->
        Hashtbl.fold (fun k v acc -> (k, Json.Float v) :: acc) gauges []
        |> List.sort compare)
  in
  let hist_names =
    locked (fun () ->
        List.concat_map
          (fun b -> Hashtbl.fold (fun k _ acc -> k :: acc) b.hists [])
          !bufs
        |> List.sort_uniq compare)
  in
  let hists =
    List.filter_map
      (fun name ->
        match Histogram.summary name with
        | None -> None
        | Some s ->
          Some
            ( name,
              Json.Obj
                [ ("count", Json.Int s.Histogram.count);
                  ("min", Json.Float s.Histogram.min);
                  ("max", Json.Float s.Histogram.max);
                  ("mean", Json.Float s.Histogram.mean);
                  ("p50", Json.Float s.Histogram.p50);
                  ("p90", Json.Float s.Histogram.p90);
                  ("p99", Json.Float s.Histogram.p99) ] ))
      hist_names
  in
  Json.Obj
    ([ ("schema", Json.Int 1);
       ("counters", Json.Obj counters);
       ("gauges", Json.Obj gauge_fields);
       ("histograms", Json.Obj hists);
       ("spans", Json.Obj (span_aggregates evs));
       ("dropped_events", Json.Int (dropped_events ())) ]
     @ extra)

let trace_json () =
  let evs = events () in
  let base =
    match evs with e :: _ -> e.ev_start_ns | [] -> epoch_ns
  in
  let event_json e =
    let fields =
      [ ("name", Json.Str e.ev_name);
        ("cat", Json.Str e.ev_cat);
        ("ph", Json.Str "X");
        ("ts", Json.Float (Clock.ns_to_us (Int64.sub e.ev_start_ns base)));
        ("dur", Json.Float (Clock.ns_to_us e.ev_dur_ns));
        ("pid", Json.Int 1);
        ("tid", Json.Int e.ev_tid) ]
    in
    let fields =
      if e.ev_args = [] then fields
      else fields @ [ ("args", Json.Obj e.ev_args) ]
    in
    Json.Obj fields
  in
  Json.Obj
    [ ("traceEvents", Json.List (List.map event_json evs));
      ("displayTimeUnit", Json.Str "ms") ]

let write_file path doc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~pretty:true doc);
      output_char oc '\n')

(* The shared --metrics/--trace exit path of every entry point. *)
let export ?(extra = []) ~metrics ~trace () =
  (match metrics with
   | None -> ()
   | Some path -> write_file path (metrics_json ~extra ()));
  match trace with
  | None -> ()
  | Some path -> write_file path (trace_json ())
