(* The simpleperf substitute (paper section 3.4.2, Figure 6): per-function
   execution-time profiles collected from instrumented runs, used to guide
   the next build's hot-function filtering.

   "In evaluation, we sort the functions by their execution time and choose
   the set of top functions that account for 80% of the total execution
   time as hot functions to be filtered." *)

open Calibro_dex.Dex_ir

type sample = { s_method : method_ref; s_cycles : int }

type t = sample list

let total (t : t) = List.fold_left (fun a s -> a + s.s_cycles) 0 t

(* Canonical sample order: hottest first, ties broken by method name so the
   result never depends on hash-table iteration order (the PGO drift loop
   compares hot sets across processes). *)
let compare_sample a b =
  match compare b.s_cycles a.s_cycles with
  | 0 ->
    compare
      (a.s_method.class_name, a.s_method.method_name)
      (b.s_method.class_name, b.s_method.method_name)
  | c -> c

(* Collect a profile from a finished simulator run. *)
let of_interp (interp : Calibro_vm.Interp.t) : t =
  Calibro_vm.Interp.method_cycles interp
  |> List.map (fun (m, c) -> { s_method = m; s_cycles = c })

let merge (a : t) (b : t) : t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace tbl s.s_method
        (s.s_cycles + Option.value ~default:0 (Hashtbl.find_opt tbl s.s_method)))
    (a @ b);
  Hashtbl.fold (fun m c acc -> { s_method = m; s_cycles = c } :: acc) tbl []
  |> List.sort compare_sample

(* Age the accumulator of a decayed window: scale every sample down by
   [factor] (0 < factor <= 1), dropping methods whose mass rounds to zero so
   a long-running accumulator stays bounded by the live method set. *)
let decay ~factor (t : t) : t =
  List.filter_map
    (fun s ->
      let c = int_of_float (factor *. float_of_int s.s_cycles) in
      if c <= 0 then None else Some { s with s_cycles = c })
    t

(* The top functions accounting for [coverage] of total execution time. *)
let hot_set ?(coverage = 0.8) (t : t) : method_ref list =
  let sorted = List.sort compare_sample t in
  let budget = coverage *. float_of_int (total t) in
  let rec take acc cum = function
    | [] -> List.rev acc
    | s :: rest ->
      if cum >= budget || s.s_cycles = 0 then List.rev acc
      else take (s.s_method :: acc) (cum +. float_of_int s.s_cycles) rest
  in
  take [] 0.0 sorted

(* ---- Persistence (the "profiling data" files of Figure 6) ------------- *)

let to_string (t : t) =
  String.concat ""
    (List.map
       (fun s ->
         Printf.sprintf "%s %s %d\n" s.s_method.class_name
           s.s_method.method_name s.s_cycles)
       t)

let of_string str : (t, string) result =
  let lines =
    String.split_on_char '\n' str |> List.filter (fun l -> String.trim l <> "")
  in
  (* Duplicate method lines sum into the first occurrence (a report is a
     bag of samples, not a map), preserving first-seen order so
     [of_string (to_string p) = p] for duplicate-free profiles. *)
  let order = ref [] in
  let tbl = Hashtbl.create 64 in
  let rec go = function
    | [] ->
      Ok
        (List.rev_map
           (fun m -> { s_method = m; s_cycles = Hashtbl.find tbl m })
           !order)
    | line :: rest -> (
      (* Split on runs of whitespace so trailing blanks and double spaces
         inside a line parse rather than producing phantom empty fields. *)
      match
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun f -> f <> "")
      with
      | [ cls; name; cycles ] -> (
        match int_of_string_opt cycles with
        | Some c when c >= 0 ->
          let m = { class_name = cls; method_name = name } in
          (match Hashtbl.find_opt tbl m with
           | Some prev -> Hashtbl.replace tbl m (prev + c)
           | None ->
             Hashtbl.add tbl m c;
             order := m :: !order);
          go rest
        | Some _ -> Error (Printf.sprintf "negative cycle count in %S" line)
        | None -> Error (Printf.sprintf "bad cycle count in %S" line))
      | _ -> Error (Printf.sprintf "bad profile line %S" line))
  in
  go lines

let save (t : t) path : (unit, string) result =
  match open_out path with
  | exception Sys_error e -> Error e
  | oc ->
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        output_string oc (to_string t));
    Ok ()

let load path : (t, string) result =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string (really_input_string ic (in_channel_length ic)))
