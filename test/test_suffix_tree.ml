(* Suffix tree tests: the banana example from the paper's Figure 1, plus
   randomized differential tests against naive references. *)

open Calibro_suffix_tree

let of_string s = Array.init (String.length s) (fun i -> Char.code s.[i])

(* Every repeat [fold_repeats] emits, as (length, sorted positions). *)
let repeats ?min_length ?max_length t =
  Suffix_tree.fold_repeats ?min_length ?max_length t ~init:[] ~f:(fun acc r ->
      (r.Suffix_tree.length, Array.to_list r.Suffix_tree.positions) :: acc)

(* Naive reference: every right-maximal repeated substring as
   (length, sorted positions). A substring s is right-maximal iff it occurs
   >= 2 times and its occurrences are not all followed by the same symbol
   (occurrences at the end of the text count as distinct continuations). *)
let naive_repeats text =
  let n = Array.length text in
  let module M = Map.Make (struct
    type t = int list
    let compare = compare
  end) in
  let subs = ref M.empty in
  for i = 0 to n - 1 do
    for len = 1 to n - i do
      let key = Array.to_list (Array.sub text i len) in
      subs := M.update key (function None -> Some [ i ] | Some l -> Some (i :: l)) !subs
    done
  done;
  M.fold
    (fun key positions acc ->
      let len = List.length key in
      let positions = List.sort compare positions in
      if List.length positions >= 2 then begin
        (* right-maximal: continuations differ *)
        let conts =
          List.map
            (fun p -> if p + len >= n then -1 - p else text.(p + len))
            positions
        in
        let all_same =
          match conts with
          | [] -> true
          | c :: rest -> List.for_all (fun x -> x = c) rest
        in
        if not all_same then (len, positions) :: acc else acc
      end
      else acc)
    !subs []

(* The positions of the repeat that spells [pat]. *)
let positions_of text pat =
  let m = Array.length pat in
  List.assoc pat
    (List.map
       (fun (len, ps) -> (Array.sub text (List.hd ps) len, ps))
       (repeats ~min_length:m ~max_length:m (Suffix_tree.build text)))

let banana = of_string "banana"

let banana_tests =
  [ Alcotest.test_case "banana: occurrences of 'na'" `Quick (fun () ->
        Alcotest.(check (list int)) "na" [ 2; 4 ]
          (positions_of banana (of_string "na")));
    Alcotest.test_case "banana: occurrences of 'ana' overlap" `Quick (fun () ->
        Alcotest.(check (list int)) "ana" [ 1; 3 ]
          (positions_of banana (of_string "ana")));
    Alcotest.test_case "banana: non-overlapping selection" `Quick (fun () ->
        (* Figure 1 discussion: "ana" occurs twice but overlaps; after the
           overlap filter only one occurrence survives. Once it is
           claimed, the "na" inside it is no longer free. *)
        let claimed = Bytes.make (Array.length banana) '\000' in
        let select length ps = Array.to_list (Suffix_tree.select ~claimed ~length ps) in
        Alcotest.(check (list int)) "ana" [ 1 ] (select 3 [| 1; 3 |]);
        Alcotest.(check (list int)) "na" [ 2; 4 ] (select 2 [| 2; 4 |]);
        Bytes.fill claimed 1 3 '\001';
        Alcotest.(check (list int)) "na after ana" [ 4 ] (select 2 [| 2; 4 |]));
    Alcotest.test_case "banana: repeats match figure 1" `Quick (fun () ->
        let t = Suffix_tree.build banana in
        let rs =
          repeats t
          |> List.map (fun (len, ps) ->
                 (Array.to_list (Array.sub banana (List.hd ps) len), ps))
          |> List.sort compare
        in
        (* Internal nodes of the banana tree: "a" (3 leaves), "ana" (2),
           "n"?: "na" and "nana" share prefix... right-maximal: "a", "ana",
           "na". *)
        let expect =
          [ (of_string "a" |> Array.to_list, [ 1; 3; 5 ]);
            (of_string "ana" |> Array.to_list, [ 1; 3 ]);
            (of_string "na" |> Array.to_list, [ 2; 4 ]) ]
        in
        Alcotest.(check int) "count" (List.length expect) (List.length rs);
        List.iter2
          (fun (ek, ep) (k, p) ->
            Alcotest.(check (list int)) "key" ek k;
            Alcotest.(check (list int)) "pos" ep p)
          expect rs);
    Alcotest.test_case "leaf count equals n+1" `Quick (fun () ->
        let t = Suffix_tree.build banana in
        (* "banana$" has 7 suffixes, hence 7 leaves, under the root and
           the internal nodes "a", "ana" and "na". *)
        Alcotest.(check int) "nodes" (7 + 4) (Suffix_tree.node_count t));
    Alcotest.test_case "rejects reserved terminal" `Quick (fun () ->
        match Suffix_tree.build [| 1; Suffix_tree.terminal; 2 |] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "empty input" `Quick (fun () ->
        let t = Suffix_tree.build [||] in
        Alcotest.(check int) "len" 0 (Suffix_tree.input_length t);
        Alcotest.(check (list int)) "no repeats" [] (List.map fst (repeats t)));
    Alcotest.test_case "separators never repeat" `Quick (fun () ->
        (* Two identical blocks joined by unique separators: repeats must
           never span a separator (they are unique), so the longest repeat
           is the block itself. *)
        let block = [| 7; 8; 9; 7; 8 |] in
        let input = Array.concat [ block; [| -1 |]; block; [| -2 |]; block ] in
        let t = Suffix_tree.build input in
        let max_len = List.fold_left (fun m (len, _) -> max m len) 0 (repeats t) in
        Alcotest.(check int) "max repeat length" 5 max_len)
  ]

(* ---- Randomized differential tests ---------------------------------- *)

let gen_small_array =
  QCheck.Gen.(
    let* n = int_range 0 40 in
    let* alphabet = int_range 1 4 in
    array_size (return n) (int_range 0 alphabet))

let arb_small_array =
  QCheck.make gen_small_array ~print:(fun a ->
      String.concat ";" (Array.to_list a |> List.map string_of_int))

let repeats_match_naive =
  QCheck.Test.make ~name:"repeats match naive right-maximal enumeration"
    ~count:200 arb_small_array (fun text ->
      let got = repeats (Suffix_tree.build text) |> List.sort compare in
      let want = naive_repeats text |> List.sort compare in
      got = want)

(* [select]'s two steps as separate passes: the overlap walk over every
   position, then the claim filter over what it kept. Filtering claimed
   positions first would let a claimed occurrence stop ending its run. *)
let reference_select ~claimed ~length positions =
  let rec walk run_end = function
    | [] -> []
    | p :: rest ->
      if p >= run_end then p :: walk (p + length) rest else walk run_end rest
  in
  let free p =
    List.for_all (fun i -> Bytes.get claimed (p + i) = '\000')
      (List.init length Fun.id)
  in
  List.filter free (walk min_int (Array.to_list positions))

let select_matches_reference =
  QCheck.Test.make ~name:"select: overlap walk, then claims" ~count:500
    QCheck.(
      triple (int_range 1 5)
        (make Gen.(list_size (int_range 0 20) (int_range 0 50)))
        (make Gen.(string_size ~gen:(oneofl [ '\000'; '\000'; '\001' ])
                     (return 56))))
    (fun (length, positions, claimed) ->
      let positions = Array.of_list (List.sort_uniq compare positions) in
      let claimed = Bytes.of_string claimed in
      Array.to_list (Suffix_tree.select ~claimed ~length positions)
      = reference_select ~claimed ~length positions)

(* ---- Child order pinned to the reference construction -------------- *)

(* The construction the committed digests were produced with, kept as a
   test-only model: one record per node with a [Hashtbl] of children,
   lowered by a DFS that visits children in [Hashtbl.fold] order. It
   yields the repeats, in order, that [Suffix_tree.fold_repeats] must
   reproduce: [Ltbo.detect]'s stable candidate sort breaks ties in that
   order, so it reaches the OAT bytes. *)
module Reference = struct
  type node = {
    mutable start : int;
    mutable end_ : int ref;
    mutable suffix_link : node option;
    children : (int, node) Hashtbl.t;
  }

  let build input =
    let text = Array.append input [| Suffix_tree.terminal |] in
    let n = Array.length text in
    let mk_node ~start ~end_ =
      { start; end_; suffix_link = None;
        children = Hashtbl.create ~random:false 4 }
    in
    let edge_length node = !(node.end_) - node.start in
    let root = mk_node ~start:(-1) ~end_:(ref (-1)) in
    let global_end = ref 0 in
    let active_node = ref root and active_edge = ref 0 in
    let active_length = ref 0 and remaining = ref 0 in
    let follow_link () =
      if !active_node == root && !active_length > 0 then begin
        decr active_length;
        active_edge := !global_end - !remaining
      end
      else if !active_node != root then
        active_node :=
          (match !active_node.suffix_link with Some l -> l | None -> root)
    in
    for i = 0 to n - 1 do
      global_end := i + 1;
      incr remaining;
      let last_new_node = ref None in
      let continue_phase = ref true in
      while !remaining > 0 && !continue_phase do
        if !active_length = 0 then active_edge := i;
        match Hashtbl.find_opt !active_node.children text.(!active_edge) with
        | None ->
          Hashtbl.replace !active_node.children text.(!active_edge)
            (mk_node ~start:i ~end_:global_end);
          (match !last_new_node with
           | Some internal ->
             internal.suffix_link <- Some !active_node;
             last_new_node := None
           | None -> ());
          decr remaining;
          follow_link ()
        | Some next ->
          let el = edge_length next in
          if !active_length >= el then begin
            active_node := next;
            active_edge := !active_edge + el;
            active_length := !active_length - el
          end
          else if text.(next.start + !active_length) = text.(i) then begin
            (match !last_new_node with
             | Some internal ->
               internal.suffix_link <- Some !active_node;
               last_new_node := None
             | None -> ());
            incr active_length;
            continue_phase := false
          end
          else begin
            let split =
              mk_node ~start:next.start
                ~end_:(ref (next.start + !active_length))
            in
            Hashtbl.replace !active_node.children text.(!active_edge) split;
            next.start <- next.start + !active_length;
            Hashtbl.replace split.children text.(next.start) next;
            Hashtbl.replace split.children text.(i)
              (mk_node ~start:i ~end_:global_end);
            (match !last_new_node with
             | Some internal -> internal.suffix_link <- Some split
             | None -> ());
            last_new_node := Some split;
            decr remaining;
            follow_link ()
          end
      done
    done;
    (root, n)

  (* Every internal node but the root with >= 2 leaves, in the post-order
     of a DFS that takes children in [Hashtbl.fold] order, as (string
     depth, sorted suffix indices). *)
  let repeats input =
    let root, n = build input in
    let out = ref [] in
    let rec visit node depth =
      let kids =
        List.rev (Hashtbl.fold (fun _ c acc -> c :: acc) node.children [])
      in
      let leaves =
        List.concat_map
          (fun c ->
            let cdepth = depth + !(c.end_) - c.start in
            if Hashtbl.length c.children = 0 then [ n - cdepth ]
            else visit c cdepth)
          kids
      in
      if node != root && List.length leaves >= 2 then
        out := (depth, List.sort compare leaves) :: !out;
      leaves
    in
    ignore (visit root 0 : int list);
    List.rev !out
end

let fold_order t = List.rev (repeats t)

let print_input a =
  String.concat ";" (Array.to_list a |> List.map string_of_int)

let sep_base = Calibro_core.Seq_map.sep_base

(* Blocks [5; 6; s_i; tail] for k distinct s_i, shuffled and joined by
   unique separators: the nodes for "6" and "5 6" get exactly k children,
   around the [Hashtbl] resize boundaries, and the root gets every
   separator. Some s_i appear twice with different tails, so their child
   is split into an internal node after the key was inserted. *)
let gen_fanout =
  QCheck.Gen.(
    let* k = oneofl [ 31; 32; 33; 63; 64; 65; 127; 128; 129 ] in
    let* seed = int_bound 1_000_000 in
    let st = Random.State.make [| k; seed |] in
    let sep = ref (sep_base + Random.State.int st 5000) in
    let fresh () = incr sep; !sep in
    let sym i =
      if Random.State.bool st then fresh () else 1000 + (i * 3)
    in
    let blocks =
      List.concat
        (List.init k (fun i ->
             let s = sym i in
             let tail () =
               Array.init (Random.State.int st 3) (fun _ ->
                   1 + Random.State.int st 3)
             in
             let block = Array.concat [ [| 5; 6; s |]; tail () ] in
             if Random.State.int st 4 = 0 then
               [ block; Array.concat [ [| 5; 6; s |]; tail (); [| 9 |] ] ]
             else [ block ]))
      |> Array.of_list
    in
    for i = Array.length blocks - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let b = blocks.(i) in
      blocks.(i) <- blocks.(j);
      blocks.(j) <- b
    done;
    return
      (Array.concat
         (List.concat_map (fun b -> [ b; [| fresh () |] ]) (Array.to_list blocks))))

(* Short runs over a small alphabet between unique separators, the shape
   of a mapped method sequence. *)
let gen_separated =
  QCheck.Gen.(
    let* n = int_range 0 400 in
    let* seed = int_bound 1_000_000 in
    let st = Random.State.make [| n; seed |] in
    let sep = ref sep_base in
    return
      (Array.init n (fun _ ->
           if Random.State.int st 3 = 0 then (incr sep; !sep)
           else Random.State.int st 5)))

let same_order_as_reference name gen count =
  QCheck.Test.make ~name ~count (QCheck.make gen ~print:print_input)
    (fun input ->
      fold_order (Suffix_tree.build input) = Reference.repeats input)

let order_tests =
  [ same_order_as_reference "repeat order matches the reference: fan-outs"
      gen_fanout 60;
    same_order_as_reference "repeat order matches the reference: separated"
      gen_separated 200;
    same_order_as_reference "repeat order matches the reference: small"
      gen_small_array 200 ]

(* ---- Sequence mapping pinned to the list-building form ---------------- *)

(* The mapping the committed digests were produced with: a backward walk
   that conses one element per word, allocating separators as it goes. *)
let reference_map_method ?(eligible = fun _ -> true)
    (cm : Calibro_codegen.Compiled_method.t) (next_sep : int ref) =
  let open Calibro_aarch64 in
  let open Calibro_codegen in
  let open Calibro_core in
  let fresh () =
    let v = !next_sep in
    incr next_sep;
    v
  in
  let meta = cm.Compiled_method.meta and code = cm.Compiled_method.code in
  let targets = List.map snd meta.Meta.pc_rel in
  let out = ref [] in
  for w = (Bytes.length code / 4) - 1 downto 0 do
    let off = w * 4 in
    let word = Encode.word_of_bytes code off in
    let elt =
      if Meta.is_embedded meta off || not (eligible off) then
        (fresh (), Seq_map.Separator)
      else
        let instr = Decode.decode word in
        if Isa.is_terminator instr || Isa.is_call instr
           || Isa.is_pc_relative instr || Isa.reads_lr instr
           || Isa.writes_lr instr
        then (fresh (), Seq_map.Separator)
        else (word, Seq_map.Word (word, off))
    in
    out := elt :: !out;
    if off > 0 && List.mem off targets then
      out := (fresh (), Seq_map.Separator) :: !out
  done;
  !out

let mapping_tests =
  [ Alcotest.test_case "map_method and iter_method match the reference"
      `Quick (fun () ->
        let open Calibro_core in
        let apk = (Calibro_workload.Appgen.generate Calibro_workload.Apps.demo)
                    .Calibro_workload.Appgen.app in
        let methods = Calibro_dex.Dex_ir.methods_of_apk apk in
        let slots = Hashtbl.create 64 in
        List.iteri
          (fun i (m : Calibro_dex.Dex_ir.meth) ->
            Hashtbl.replace slots m.Calibro_dex.Dex_ir.name i)
          methods;
        let compiled =
          List.map
            (fun m ->
              let g = Calibro_hgraph.Hgraph.of_method m in
              ignore (Calibro_hgraph.Passes.optimize g);
              Calibro_codegen.Codegen.compile
                ~config:{ Calibro_codegen.Codegen.cto = true }
                ~slot_of_method:(Hashtbl.find slots) g)
            methods
        in
        (* every word, and a policy that excludes some of them; one
           allocator per side across all methods, as in one group *)
        List.iter
          (fun eligible ->
            let next_sep = ref Seq_map.sep_base in
            let a = Seq_map.new_allocator () in
            let b = Seq_map.new_allocator () in
            List.iteri
              (fun i cm ->
                let want = reference_map_method ~eligible cm next_sep in
                let got = Seq_map.map_method ~eligible cm a in
                let iterated = ref [] in
                Seq_map.iter_method ~eligible cm b ~f:(fun v off ->
                    iterated :=
                      (v, if off < 0 then Seq_map.Separator
                          else Seq_map.Word (v, off))
                      :: !iterated);
                let msg = Printf.sprintf "method %d" i in
                Alcotest.(check bool) (msg ^ ": map_method") true (got = want);
                Alcotest.(check bool) (msg ^ ": iter_method") true
                  (List.rev !iterated = want))
              compiled)
          [ (fun _ -> true); (fun off -> off mod 24 <> 8) ]) ]

let suite =
  banana_tests @ mapping_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      ([ repeats_match_naive; select_matches_reference ] @ order_tests)
