(* The CI perf gate as data: one table of rows and two folds over it.

   A row names a measured value (a path into the gate's bench section),
   the bound committed for it (a path into bench/baseline.json), and a
   kind that says both how [baseline] derives the bound from a
   measurement and how [check] holds a fresh measurement against it. A
   baseline key that no row reads fails [check], so the committed file
   and the table cannot drift apart. *)

module Json = Calibro_obs.Json

type path = string list

(* How [baseline] turns a measured value into the committed bound. *)
type write =
  | Same  (* the measured value itself, Int or Float *)
  | Half_count  (* integer half of a count that races concurrent work *)
  | Round of float * int  (* measured x factor, rounded to n decimals *)
  | Pad of int
      (* rounded to n decimals, then one step of the last decimal to the
         loose side: absorbs float formatting through the JSON round-trip *)
  | Const of float  (* a fixed budget, not a measurement *)

type kind =
  | Exact  (* committed as measured; fail unless equal *)
  | Near_floor of float  (* committed as measured; fail below it - tol *)
  | Floor of write * float  (* fail below committed x slack *)
  | Envelope of write * float  (* fail above committed x slack *)
  | Same_run of path * float
      (* nothing committed: fail below ratio x another value of the same
         measurement *)

type row = { measured : path; committed : path; kind : kind }

(* Every check a measurement module makes unconditionally, as
   (holds, message) pairs; the messages of those that do not hold. *)
let violated checks =
  List.filter_map (fun (holds, msg) -> if holds then None else Some msg) checks

let dotted = String.concat "."

let name r =
  match r.kind with
  | Same_run (anchor, ratio) ->
    Printf.sprintf "%s >= %g x %s" (dotted r.measured) ratio (dotted anchor)
  | _ -> dotted r.committed

let rec get path doc =
  match path with
  | [] -> Some doc
  | k :: rest -> Option.bind (Json.member k doc) (get rest)

(* [doc] with [v] at [path]; new keys go last, so the table's row order
   is the written file's key order. *)
let rec set path v doc =
  match path with
  | [] -> v
  | k :: rest ->
    let fields = Option.value (Json.get_obj doc) ~default:[] in
    Json.Obj
      (if List.mem_assoc k fields then
         List.map
           (fun (k', c) -> (k', if k' = k then set rest v c else c))
           fields
       else fields @ [ (k, set rest v (Json.Obj [])) ])

let rec leaves prefix = function
  | Json.Obj fields ->
    List.concat_map (fun (k, v) -> leaves (prefix @ [ k ]) v) fields
  | _ -> [ prefix ]

let schema = ("schema", Json.Int 1)

(* The bound [kind] commits for the measured value [m]; [None] when [m]
   is not a number its write rule accepts. *)
let bound kind m =
  let scaled f = Option.map (fun x -> Json.Float (f x)) (Json.get_float m) in
  let rule, loose =
    match kind with
    | Exact | Near_floor _ | Same_run _ -> (Same, 0.)
    | Floor (w, _) -> (w, -1.)
    | Envelope (w, _) -> (w, 1.)
  in
  match (rule, m) with
  | Same, (Json.Int _ | Json.Float _) -> Some m
  | Half_count, Json.Int n -> Some (Json.Int (n / 2))
  | Round (f, digits), _ ->
    let p = 10. ** float_of_int digits in
    scaled (fun x -> Float.round (x *. f *. p) /. p)
  | Pad digits, _ ->
    let p = 10. ** float_of_int digits in
    scaled (fun x -> (Float.round (x *. p) +. loose) /. p)
  | Const c, _ -> Some (Json.Float c)
  | (Same | Half_count), _ -> None

(* The baseline fold: every row's bound, derived from one measurement. *)
let baseline rows measured : (Json.t, string list) result =
  let doc, errors =
    List.fold_left
      (fun (doc, errors) r ->
        match r.kind with
        | Same_run _ -> (doc, errors)
        | kind -> (
          match Option.bind (get r.measured measured) (bound kind) with
          | Some b -> (set r.committed b doc, errors)
          | None ->
            ( doc,
              Printf.sprintf "%s: %s not measured" (name r) (dotted r.measured)
              :: errors )))
      (Json.Obj [ schema ], [])
      rows
  in
  if errors = [] then Ok doc else Error (List.rev errors)

let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.6g" x

(* The gate fold: one report line per row, and a failure naming the row
   for every bound broken, every value missing on either side, and every
   baseline key that no row reads. *)
let check rows ~measured ~baseline : string list * string list =
  let ( let* ) = Result.bind in
  let judge r =
    let need doc path what =
      match Option.bind (get path doc) Json.get_float with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "%s: %s %s" (name r) (dotted path) what)
    in
    let* m = need measured r.measured "not measured" in
    let* c =
      match r.kind with
      | Same_run (anchor, _) -> need measured anchor "not measured"
      | _ -> need baseline r.committed "missing from the baseline"
    in
    let limit, fails, side =
      match r.kind with
      | Exact -> (c, m <> c, "differs from")
      | Near_floor tol -> (c -. tol, m < c -. tol, "below")
      | Floor (_, s) | Same_run (_, s) -> (c *. s, m < c *. s, "below")
      | Envelope (_, s) -> (c *. s, m > c *. s, "above")
    in
    Ok
      ( Printf.sprintf "  %-46s %10s %10s %10s  %s" (name r) (num m) (num c)
          (num limit)
          (if fails then "FAIL" else "ok"),
        if fails then
          Some
            (Printf.sprintf "%s: measured %s %s limit %s (committed %s)"
               (name r) (num m) side (num limit) (num c))
        else None )
  in
  let lines, failures =
    List.split
      (List.map
         (fun r ->
           match judge r with
           | Ok verdict -> verdict
           | Error e -> (Printf.sprintf "  %-46s  FAIL" (name r), Some e))
         rows)
  in
  let read =
    [ fst schema ]
    :: List.filter_map
         (fun r ->
           match r.kind with Same_run _ -> None | _ -> Some r.committed)
         rows
  in
  let unread =
    List.filter_map
      (fun p ->
        if List.mem p read then None
        else Some (dotted p ^ ": in the baseline but no row reads it"))
      (leaves [] baseline)
  in
  (lines, List.filter_map Fun.id failures @ unread)
