(* HGraph construction and optimization pass tests. *)

open Calibro_dex.Dex_ir
open Calibro_hgraph
open Hgraph

let mk_method ?(params = 0) ?(vregs = 8) insns =
  { name = { class_name = "t"; method_name = "m" };
    num_params = params; num_vregs = vregs; is_native = false;
    is_entry = false; insns = Array.of_list insns }

let graph ?params ?vregs insns = of_method (mk_method ?params ?vregs insns)

let count_insns g = size g

let has_insn g pred =
  Array.exists (fun b -> List.exists pred b.insns) g.blocks

let suite =
  [ Alcotest.test_case "straight line is one block" `Quick (fun () ->
        let g = graph [ Const (0, 1); Const (1, 2); Return (Some 0) ] in
        Alcotest.(check int) "blocks" 1 (Array.length g.blocks);
        verify g);
    Alcotest.test_case "diamond CFG shape" `Quick (fun () ->
        (* 0: ifz -> 2 ; 1: goto 3 ; 2: ... ; 3: return *)
        let g =
          graph
            [ Ifz (Eq, 0, 3);          (* B0 *)
              Const (1, 1); Goto 4;    (* B1 *)
              Const (1, 2);            (* B2, falls through *)
              Return (Some 1) ]        (* B3 *)
        in
        Alcotest.(check int) "blocks" 4 (Array.length g.blocks);
        verify g;
        (match g.blocks.(0).term with
         | TIfz (Eq, 0, 2, 1) -> ()
         | t -> Alcotest.failf "entry term %s" (term_to_string t));
        match g.blocks.(2).term with
        | TGoto 3 -> ()
        | t -> Alcotest.failf "fallthrough term %s" (term_to_string t));
    Alcotest.test_case "null and bounds checks materialized" `Quick (fun () ->
        let g = graph [ Aget (1, 0, 2); Return (Some 1) ] in
        Alcotest.(check bool) "null" true
          (has_insn g (function HNull_check 0 -> true | _ -> false));
        Alcotest.(check bool) "bounds" true
          (has_insn g (function HBounds_check (2, 0) -> true | _ -> false)));
    Alcotest.test_case "div emits zero check" `Quick (fun () ->
        let g = graph [ Binop (Div, 2, 0, 1); Return (Some 2) ] in
        Alcotest.(check bool) "check" true
          (has_insn g (function HDiv_zero_check 1 -> true | _ -> false)));
    Alcotest.test_case "const_fold folds arithmetic" `Quick (fun () ->
        let g =
          graph
            [ Const (0, 6); Const (1, 7); Binop (Mul, 2, 0, 1);
              Return (Some 2) ]
        in
        ignore (Passes.const_fold g);
        Alcotest.(check bool) "folded" true
          (has_insn g (function HConst (2, 42) -> true | _ -> false)));
    Alcotest.test_case "const_fold removes provably-nonzero div check" `Quick
      (fun () ->
        let g =
          graph [ Const (1, 3); Binop (Div, 2, 0, 1); Return (Some 2) ]
        in
        ignore (Passes.const_fold g);
        Alcotest.(check bool) "check gone" false
          (has_insn g (function HDiv_zero_check _ -> true | _ -> false)));
    Alcotest.test_case "const_fold keeps div-by-zero check" `Quick (fun () ->
        let g =
          graph [ Const (1, 0); Binop (Div, 2, 0, 1); Return (Some 2) ]
        in
        ignore (Passes.const_fold g);
        Alcotest.(check bool) "check kept" true
          (has_insn g (function HDiv_zero_check _ -> true | _ -> false)));
    Alcotest.test_case "const_fold resolves constant branch" `Quick (fun () ->
        let g =
          graph
            [ Const (0, 0); Ifz (Eq, 0, 3); Return (Some 0); Const (1, 9);
              Return (Some 1) ]
        in
        ignore (Passes.const_fold g);
        match g.blocks.(0).term with
        | TGoto _ -> ()
        | t -> Alcotest.failf "expected goto, got %s" (term_to_string t));
    Alcotest.test_case "copy_prop forwards moves" `Quick (fun () ->
        let g =
          graph
            [ Const (0, 5); Move (1, 0); Binop (Add, 2, 1, 1);
              Return (Some 2) ]
        in
        ignore (Passes.copy_prop g);
        Alcotest.(check bool) "uses v0" true
          (has_insn g (function HBinop (Add, 2, 0, 0) -> true | _ -> false)));
    Alcotest.test_case "copy_prop invalidated by redefinition" `Quick
      (fun () ->
        let g =
          graph
            [ Move (1, 0);      (* v1 = v0 *)
              Const (0, 9);     (* v0 redefined: copy stale *)
              Binop (Add, 2, 1, 1);
              Return (Some 2) ]
        in
        ignore (Passes.copy_prop g);
        Alcotest.(check bool) "still uses v1" true
          (has_insn g (function HBinop (Add, 2, 1, 1) -> true | _ -> false)));
    Alcotest.test_case "cse merges duplicate expressions" `Quick (fun () ->
        let g =
          graph
            [ Binop (Add, 2, 0, 1); Binop (Add, 3, 0, 1);
              Binop (Mul, 4, 2, 3); Return (Some 4) ]
        in
        ignore (Passes.cse g);
        Alcotest.(check bool) "second becomes move" true
          (has_insn g (function HMove (3, 2) -> true | _ -> false)));
    Alcotest.test_case "cse respects operand invalidation" `Quick (fun () ->
        let g =
          graph
            [ Binop (Add, 2, 0, 1);
              Const (0, 7);          (* operand changed *)
              Binop (Add, 3, 0, 1);
              Binop (Mul, 4, 2, 3);
              Return (Some 4) ]
        in
        ignore (Passes.cse g);
        Alcotest.(check bool) "no bogus merge" false
          (has_insn g (function HMove (3, 2) -> true | _ -> false)));
    Alcotest.test_case "dce removes dead code" `Quick (fun () ->
        let g =
          graph
            [ Const (0, 1); Const (1, 99); Binop (Add, 2, 1, 1);
              Return (Some 0) ]
        in
        ignore (Passes.dce g);
        Alcotest.(check int) "only live const remains" 1 (count_insns g));
    Alcotest.test_case "dce keeps side effects" `Quick (fun () ->
        let g =
          graph
            [ Const (0, 1);
              Invoke_runtime (Log_value, [ 0 ], Some 1); (* result dead, call kept *)
              Return (Some 0) ]
        in
        ignore (Passes.dce g);
        Alcotest.(check bool) "call kept" true
          (has_insn g (function HInvoke_runtime _ -> true | _ -> false)));
    Alcotest.test_case "dce respects cross-block liveness" `Quick (fun () ->
        let g =
          graph
            [ Const (1, 42);         (* live only in B2 *)
              Ifz (Eq, 0, 4);
              Const (1, 7);
              Return (Some 1);
              Return (Some 1) ]
        in
        ignore (Passes.dce g);
        Alcotest.(check bool) "cross-block const kept" true
          (has_insn g (function HConst (1, 42) -> true | _ -> false)));
    Alcotest.test_case "simplify collapses same-target if" `Quick (fun () ->
        let g = graph [ Ifz (Eq, 0, 1); Return (Some 0) ] in
        ignore (Passes.simplify_branches g);
        match g.blocks.(0).term with
        | TGoto _ -> ()
        | t -> Alcotest.failf "expected goto, got %s" (term_to_string t));
    Alcotest.test_case "simplify drops unreachable blocks" `Quick (fun () ->
        let g =
          graph
            [ Const (0, 0); Ifz (Eq, 0, 4); Return (Some 0); Return (Some 0);
              Return (Some 0) ]
        in
        ignore (Passes.const_fold g);
        ignore (Passes.simplify_branches g);
        verify g;
        Alcotest.(check bool) "fewer blocks" true (Array.length g.blocks <= 3));
    Alcotest.test_case "optimize reaches fixpoint and verifies" `Quick
      (fun () ->
        let g =
          graph
            [ Const (0, 2); Const (1, 3); Binop (Add, 2, 0, 1);
              Move (3, 2); Binop (Mul, 4, 3, 3); Ifz (Eq, 4, 8);
              Const (5, 1); Return (Some 5); Const (5, 0); Return (Some 5) ]
        in
        let rounds = Passes.optimize g in
        verify g;
        Alcotest.(check bool) "terminates" true (rounds <= 8);
        (* 2+3=5, 5*5=25, ifz eq 25 is false -> falls to const 1 branch *)
        Alcotest.(check bool) "branch resolved" true
          (Array.for_all
             (fun b -> match b.term with TIfz _ | TIf _ -> false | _ -> true)
             g.blocks));
    Alcotest.test_case "native method has no blocks" `Quick (fun () ->
        let m =
          { name = { class_name = "t"; method_name = "n" };
            num_params = 1; num_vregs = 1; is_native = true; is_entry = false;
            insns = [||] }
        in
        let g = of_method m in
        Alcotest.(check int) "blocks" 0 (Array.length g.blocks);
        Alcotest.(check int) "optimize no-op" 0 (Passes.optimize g));
    Alcotest.test_case "dce liveness crosses a loop in the second word"
      `Quick (fun () ->
        (* v64 and v70 live in the second 63-bit word; the decrement of
           v70 is read only by the loop header, across the back edge. The
           dead v7 has v70's bit position in the first word. *)
        let g =
          graph ~vregs:72
            [ Const (70, 3); Const (64, 0);          (* B0 *)
              Ifz (Eq, 70, 7);                       (* B1: header *)
              Binop (Add, 64, 64, 70);               (* B2: body *)
              Binop_lit (Add, 70, 70, -1);
              Const (7, 9);                          (* dead *)
              Goto 2;
              Return (Some 64) ]                     (* B3 *)
        in
        Alcotest.(check bool) "changed" true (Passes.dce g);
        Alcotest.(check bool) "decrement kept" true
          (has_insn g (function HBinop_lit (Add, 70, 70, -1) -> true | _ -> false));
        Alcotest.(check bool) "sum kept" true
          (has_insn g (function HBinop (Add, 64, 64, 70) -> true | _ -> false));
        Alcotest.(check bool) "dead const dropped" false
          (has_insn g (function HConst (7, _) -> true | _ -> false));
        Alcotest.(check int) "insns" 4 (count_insns g));
    Alcotest.test_case "copy_prop drops a copy whose destination is redefined"
      `Quick (fun () ->
        let g =
          graph
            [ Move (1, 0);      (* v1 = v0 *)
              Const (1, 9);     (* v1 redefined: the copy is gone *)
              Binop (Add, 2, 1, 1);
              Return (Some 2) ]
        in
        Alcotest.(check bool) "unchanged" false (Passes.copy_prop g);
        Alcotest.(check bool) "still uses v1" true
          (has_insn g (function HBinop (Add, 2, 1, 1) -> true | _ -> false)));
    Alcotest.test_case "cse drops an expression whose result is redefined"
      `Quick (fun () ->
        let g =
          graph
            [ Binop (Add, 2, 0, 1);
              Const (2, 7);          (* v2 no longer holds v0 + v1 *)
              Binop (Add, 3, 0, 1);
              Binop (Mul, 4, 2, 3);
              Return (Some 4) ]
        in
        Alcotest.(check bool) "unchanged" false (Passes.cse g);
        Alcotest.(check bool) "no move from v2" false
          (has_insn g (function HMove (3, 2) -> true | _ -> false)));
    Alcotest.test_case "cse keeps the known self-update defect" `Quick
      (fun () ->
        (* [add v0, v0, v1] records v0 + v1 -> v0 although it overwrote
           v0, so the second add wrongly becomes a move. Pinned until the
           fix lands with its digest re-pin (ROADMAP.md). *)
        let g =
          graph ~params:2
            [ Binop (Add, 0, 0, 1); Binop (Add, 2, 0, 1); Return (Some 2) ]
        in
        Alcotest.(check bool) "changed" true (Passes.cse g);
        Alcotest.(check bool) "second add is a move" true
          (has_insn g (function HMove (2, 0) -> true | _ -> false)));
    Alcotest.test_case "const_fold resolves a known switch" `Quick (fun () ->
        let switch v =
          graph
            [ Const (0, v); Switch (0, [ 3; 4 ]);    (* B0 *)
              Return (Some 0);                       (* B1: default *)
              Return (Some 0);                       (* B2: case 0 *)
              Return (Some 0) ]                      (* B3: case 1 *)
        in
        let g = switch 1 in
        Alcotest.(check bool) "changed" true (Passes.const_fold g);
        (match g.blocks.(0).term with
         | TGoto 3 -> ()
         | t -> Alcotest.failf "case 1: %s" (term_to_string t));
        let g = switch 7 in
        ignore (Passes.const_fold g);
        match g.blocks.(0).term with
        | TGoto 1 -> ()
        | t -> Alcotest.failf "out of range: %s" (term_to_string t));
    Alcotest.test_case "out-of-range register fails as a Pass_error" `Quick
      (fun () ->
        let fails ?vregs insns msg =
          match Passes.optimize (graph ?vregs insns) with
          | r -> Alcotest.failf "optimized in %d rounds" r
          | exception Passes.Pass_error m -> Alcotest.(check string) "message" msg m
        in
        fails ~vregs:4 [ Const (6, 1); Return (Some 6) ]
          "pass const_fold broke t.m: block 0: vreg v6 out of range";
        fails ~vregs:4 [ Const (1, 2); Binop (Add, 2, 1, 9); Return (Some 2) ]
          "pass const_fold broke t.m: block 0: vreg v9 out of range";
        fails ~vregs:4
          [ Move (1, 0); Ifz (Eq, 5, 3); Return (Some 1); Return (Some 0) ]
          "pass const_fold broke t.m: block 0: vreg v5 out of range";
        (* too far out to give every register a slot *)
        fails ~vregs:200_000 [ Const (150_000, 1); Return (Some 150_000) ]
          "t.m names registers v0..v150000 in 1 blocks: too many");
    Alcotest.test_case "demo app: optimize rounds and sizes pinned" `Quick
      (fun () ->
        (* any drift in a pass's rewrite or in its changed answer moves
           these totals before it reaches the bytes *)
        let methods =
          Calibro_dex.Dex_ir.methods_of_apk
            (Calibro_workload.Appgen.generate Calibro_workload.Apps.demo)
              .Calibro_workload.Appgen.app
        in
        let rounds, size =
          List.fold_left
            (fun (rounds, size) m ->
              let g = of_method m in
              let r = Passes.optimize g in
              (rounds + r, size + Hgraph.size g))
            (0, 0) methods
        in
        Alcotest.(check int) "methods" 117 (List.length methods);
        Alcotest.(check int) "rounds" 225 rounds;
        Alcotest.(check int) "size after" 3598 size)
  ]
