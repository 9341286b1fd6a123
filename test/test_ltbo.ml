(* LTBO correctness: outlining must shrink the text and must never change
   behaviour. Checked on hand-written redundant programs and on randomly
   generated ones (differential execution across all configurations). *)

open Calibro_dex
open Calibro_core
open Calibro_vm

let parse src =
  match Dex_text.parse src with
  | Ok apk -> apk
  | Error e -> Alcotest.failf "parse: %s" e

let build config apk = Pipeline.build ~config apk

let exec (b : Pipeline.build) entry args =
  let t = Interp.load b.Pipeline.b_oat in
  let outcome = Interp.call t { class_name = "t"; method_name = entry } args in
  (outcome, Interp.log t)

let outcome_str = function
  | Interp.Returned v -> Printf.sprintf "Returned %d" v
  | Interp.Thrown fn -> "Thrown " ^ Dex_ir.runtime_fn_name fn
  | Interp.Fault m -> "Fault " ^ m

(* A program with heavy redundancy: the same block body repeated in many
   methods. *)
let redundant_src =
  let body i =
    Printf.sprintf
      {|.method m%d params #2 regs #8
  add v2, v0, v1
  mul v3, v2, v2
  sub v4, v3, v2
  xor v5, v4, v0
  and v6, v5, v1
  or v7, v6, v2
  add v7, v7, #%d
  return v7
.end
|}
      i (i mod 3)
  in
  let calls =
    String.concat ""
      (List.init 12 (fun i ->
           Printf.sprintf "  invoke t.m%d (v0, v1) -> v2\n  add v3, v3, v2\n" i))
  in
  ".apk t\n.dex d\n.class t\n"
  ^ String.concat "" (List.init 12 body)
  ^ Printf.sprintf
      ".method main params #2 regs #5 entry\n  const v3, #0\n%s  return v3\n.end\n"
      calls

let configs =
  [ Config.baseline; Config.cto; Config.cto_ltbo; Config.cto_ltbo_pl ~k:4 () ]

let check_differential name src entry args =
  let apk = parse src in
  let builds = List.map (fun c -> build c apk) configs in
  match builds with
  | [] -> assert false
  | base :: rest ->
    let base_out = exec base entry args in
    List.iter
      (fun (b : Pipeline.build) ->
        let got = exec b entry args in
        Alcotest.(check string)
          (Printf.sprintf "%s: %s outcome" name b.Pipeline.b_config.Config.name)
          (outcome_str (fst base_out))
          (outcome_str (fst got));
        Alcotest.(check (list int))
          (Printf.sprintf "%s: %s log" name b.Pipeline.b_config.Config.name)
          (snd base_out) (snd got))
      rest;
    builds

(* ---- Random program generation for differential fuzzing --------------- *)

let gen_program_simple : string QCheck.Gen.t =
  let open QCheck.Gen in
  let* n_methods = int_range 2 6 in
  let regs = 6 in
  let* pool_seed = int_range 0 1000 in
  let gen_line idx i rng_case d a b v =
    match rng_case with
    | 0 -> Printf.sprintf "  const v%d, #%d" d v
    | 1 -> Printf.sprintf "  add v%d, v%d, v%d" d a b
    | 2 -> Printf.sprintf "  sub v%d, v%d, v%d" d a b
    | 3 -> Printf.sprintf "  mul v%d, v%d, v%d" d a b
    | 4 -> Printf.sprintf "  xor v%d, v%d, v%d" d a b
    | 5 -> Printf.sprintf "  and v%d, v%d, v%d" d a b
    | 6 -> Printf.sprintf "  rtcall pLogValue (v%d)" a
    | 7 when idx > 0 ->
      Printf.sprintf "  invoke t.m%d (v%d, v%d) -> v%d" (i mod idx) a b d
    | _ -> Printf.sprintf "  or v%d, v%d, v%d" d a b
  in
  let* methods =
    List.init n_methods (fun i -> i)
    |> List.fold_left
         (fun acc idx ->
           let* acc = acc in
           let* n_insns = int_range 4 16 in
           let* lines =
             List.init n_insns (fun i -> i)
             |> List.fold_left
                  (fun lacc i ->
                    let* lacc = lacc in
                    let* c = int_range 0 8 in
                    let* d = int_range 0 (regs - 1) in
                    let* a = int_range 0 (regs - 1) in
                    let* b = int_range 0 (regs - 1) in
                    let* v = int_range (-3) 200 in
                    (* bias towards a small template pool for redundancy *)
                    let c = (c + pool_seed) mod 9 in
                    return (gen_line idx i c d a b v :: lacc))
                  (return [])
           in
           let* guard = int_range 0 (regs - 1) in
           let body = String.concat "\n" (List.rev lines) in
           let m =
             Printf.sprintf
               ".method m%d params #2 regs #%d%s\n%s\n  ifz ne v%d, :end\n  add v0, v0, #1\n:end\n  return v0\n.end\n"
               idx regs
               (if idx = n_methods - 1 then " entry" else "")
               body guard
           in
           return (m :: acc))
         (return [])
  in
  return (".apk t\n.dex d\n.class t\n" ^ String.concat "" (List.rev methods))

let differential_fuzz =
  QCheck.Test.make ~name:"random programs behave identically in all configs"
    ~count:60
    (QCheck.make gen_program_simple ~print:(fun s -> s))
    (fun src ->
      match Dex_text.parse src with
      | Error _ -> false (* generator must produce valid programs *)
      | Ok apk -> (
        match Dex_check.check apk with
        | Error _ -> false
        | Ok () ->
          let builds = List.map (fun c -> build c apk) configs in
          let outs =
            List.map
              (fun (b : Pipeline.build) ->
                let t = Interp.load b.Pipeline.b_oat in
                let entry =
                  List.hd
                    (List.rev (Dex_ir.methods_of_apk apk))
                in
                let o = Interp.call t entry.Dex_ir.name [ 3; 4 ] in
                (outcome_str o, Interp.log t))
              builds
          in
          match outs with
          | [] -> false
          | first :: rest -> List.for_all (fun o -> o = first) rest))

let suite =
  [ Alcotest.test_case "ltbo shrinks redundant program" `Quick (fun () ->
        let builds = check_differential "redundant" redundant_src "main" [ 3; 4 ] in
        let sizes = List.map Pipeline.text_size builds in
        (match sizes with
         | [ base; cto; ltbo; pl ] ->
           Alcotest.(check bool)
             (Printf.sprintf "cto (%d) < base (%d)" cto base)
             true (cto < base);
           Alcotest.(check bool)
             (Printf.sprintf "ltbo (%d) < cto (%d)" ltbo cto)
             true (ltbo < cto);
           Alcotest.(check bool)
             (Printf.sprintf "pl (%d) <= cto (%d)" pl cto)
             true (pl <= cto)
         | _ -> Alcotest.fail "config count");
        ());
    Alcotest.test_case "ltbo emits outlined functions + stats" `Quick
      (fun () ->
        let apk = parse redundant_src in
        let b = build Config.cto_ltbo apk in
        let stats = Option.get b.Pipeline.b_ltbo_stats in
        Alcotest.(check bool) "outlined some" true
          (stats.Ltbo.s_outlined_functions > 0);
        Alcotest.(check bool) "replaced more occurrences than functions" true
          (stats.Ltbo.s_occurrences_replaced > stats.Ltbo.s_outlined_functions);
        Alcotest.(check int) "oat records them"
          stats.Ltbo.s_outlined_functions
          (List.length b.Pipeline.b_oat.Calibro_oat.Oat_file.outlined));
    Alcotest.test_case "outlined bodies end with br x30" `Quick (fun () ->
        let apk = parse redundant_src in
        let b = build Config.cto_ltbo apk in
        let oat = b.Pipeline.b_oat in
        List.iter
          (fun (ol : Calibro_oat.Oat_file.outlined_entry) ->
            let last_off = ol.ol_offset + ol.ol_size - 4 in
            let w =
              Calibro_aarch64.Encode.word_of_bytes
                oat.Calibro_oat.Oat_file.text last_off
            in
            match Calibro_aarch64.Decode.decode w with
            | Calibro_aarch64.Isa.Br 30 -> ()
            | i ->
              Alcotest.failf "expected br x30, got %s"
                (Calibro_aarch64.Disasm.to_string i))
          oat.Calibro_oat.Oat_file.outlined);
    Alcotest.test_case "no candidate methods -> no change" `Quick (fun () ->
        (* A native method and a switch method: both excluded. *)
        let src =
          ".apk t\n.dex d\n.class t\n.method n params #1 regs #1 native\n.end\n"
          ^ ".method s params #1 regs #3 entry\n  switch v0 (:a, :b)\n  const v1, #0\n  return v1\n:a\n  const v1, #1\n  return v1\n:b\n  const v1, #2\n  return v1\n.end\n"
        in
        let apk = parse src in
        let b = build Config.cto_ltbo apk in
        let stats = Option.get b.Pipeline.b_ltbo_stats in
        Alcotest.(check int) "no candidates include switch/native" 0
          stats.Ltbo.s_candidate_methods;
        let (o, _) = exec b "s" [ 1 ] in
        Alcotest.(check string) "still works" "Returned 2" (outcome_str o));
    Alcotest.test_case "parallel partition covers all and is disjoint" `Quick
      (fun () ->
        let groups = Parallel.partition ~k:4 ~seed:7 (List.init 23 Fun.id) in
        let all = List.concat groups |> List.sort compare in
        Alcotest.(check (list int)) "cover" (List.init 23 Fun.id) all;
        Alcotest.(check bool) "sizes even" true
          (List.for_all (fun g -> abs (List.length g - 23 / 4) <= 1) groups));
    Alcotest.test_case "hot filtering preserves behaviour, costs size" `Quick
      (fun () ->
        let apk = parse redundant_src in
        let all_methods =
          List.map (fun (m : Dex_ir.meth) -> m.Dex_ir.name)
            (Dex_ir.methods_of_apk apk)
        in
        let hf =
          build (Config.cto_ltbo_pl_hf ~k:4 ~hot_methods:all_methods ()) apk
        in
        let pl = build (Config.cto_ltbo_pl ~k:4 ()) apk in
        (* Everything is hot: only slowpaths could be outlined. *)
        Alcotest.(check bool) "hf >= pl size" true
          (Pipeline.text_size hf >= Pipeline.text_size pl);
        let o, _ = exec hf "main" [ 3; 4 ] in
        let o', _ = exec pl "main" [ 3; 4 ] in
        Alcotest.(check string) "same result" (outcome_str o') (outcome_str o));
    Alcotest.test_case "benefit model matches figure 2" `Quick (fun () ->
        Alcotest.(check int) "orig" 15 (Benefit.original_size ~length:5 ~repeats:3);
        Alcotest.(check int) "opt" 9 (Benefit.optimized_size ~length:5 ~repeats:3);
        Alcotest.(check int) "saving" 6 (Benefit.saving ~length:5 ~repeats:3);
        Alcotest.(check bool) "len1 never worthwhile" false
          (Benefit.worthwhile ~length:1 ~repeats:1000);
        Alcotest.(check bool) "len2 x4 worthwhile" true
          (Benefit.worthwhile ~length:2 ~repeats:4);
        Alcotest.(check bool) "len2 x3 not" false
          (Benefit.worthwhile ~length:2 ~repeats:3);
        Alcotest.(check int) "min_repeats l2" 4 (Benefit.min_repeats ~length:2);
        Alcotest.(check int) "min_repeats l4" 2 (Benefit.min_repeats ~length:4));
    QCheck_alcotest.to_alcotest ~long:false differential_fuzz
  ]

(* ---- Extensions: dedup and multi-round outlining ----------------------- *)

let extension_suite =
  [ Alcotest.test_case "parallel groups share deduplicated outlined bodies"
      `Quick (fun () ->
        let apk = parse redundant_src in
        let pl = build (Config.cto_ltbo_pl ~k:4 ()) apk in
        let oat = pl.Pipeline.b_oat in
        (* all outlined bodies must be pairwise distinct after dedup *)
        let bodies =
          List.map
            (fun (o : Calibro_oat.Oat_file.outlined_entry) ->
              Bytes.to_string
                (Bytes.sub oat.Calibro_oat.Oat_file.text o.ol_offset o.ol_size))
            oat.Calibro_oat.Oat_file.outlined
        in
        Alcotest.(check int) "no duplicate bodies"
          (List.length bodies)
          (List.length (List.sort_uniq compare bodies)));
    Alcotest.test_case "multi-round outlining preserves behaviour" `Quick
      (fun () ->
        let apk = parse redundant_src in
        let base = build Config.baseline apk in
        let multi =
          build { Config.cto_ltbo with Config.ltbo_rounds = 3 } apk
        in
        let single = build Config.cto_ltbo apk in
        Alcotest.(check bool) "multi <= single size" true
          (Pipeline.text_size multi <= Pipeline.text_size single);
        let o1, l1 = exec base "main" [ 3; 4 ] in
        let o2, l2 = exec multi "main" [ 3; 4 ] in
        Alcotest.(check string) "same outcome" (outcome_str o1) (outcome_str o2);
        Alcotest.(check (list int)) "same log" l1 l2);
    Alcotest.test_case "multi-round converges (no infinite growth)" `Quick
      (fun () ->
        let apk = parse redundant_src in
        let r3 = build { Config.cto_ltbo with Config.ltbo_rounds = 3 } apk in
        let r6 = build { Config.cto_ltbo with Config.ltbo_rounds = 6 } apk in
        Alcotest.(check int) "fixpoint reached"
          (Pipeline.text_size r3) (Pipeline.text_size r6));
    Alcotest.test_case "multi-round outlined symbols are unique" `Quick
      (fun () ->
        (* Round 2's sym_base advance relies on the *post-dedup*
           s_outlined_functions count: if it advanced by the pre-dedup
           candidate count (or not at all), a later round would re-issue
           an earlier round's symbol and the linker would refuse the
           duplicate. *)
        let apk = parse redundant_src in
        let methods = Dex_ir.methods_of_apk apk in
        let slots = Hashtbl.create 8 in
        List.iteri
          (fun i (m : Dex_ir.meth) -> Hashtbl.replace slots m.name i)
          methods;
        let cms =
          List.map
            (fun m ->
              Calibro_codegen.Codegen.compile
                ~slot_of_method:(Hashtbl.find slots)
                (let g = Calibro_hgraph.Hgraph.of_method m in
                 ignore (Calibro_hgraph.Passes.optimize g);
                 g))
            methods
        in
        let r = Parallel.run ~k:1 ~rounds:3 cms in
        let syms =
          List.map
            (fun (xf : Calibro_oat.Linker.extra_function) -> xf.xf_sym)
            r.Ltbo.outlined
        in
        Alcotest.(check bool) "at least one outlined function" true
          (syms <> []);
        Alcotest.(check int) "all symbols distinct" (List.length syms)
          (List.length (List.sort_uniq compare syms));
        Alcotest.(check bool) "all in the outlined namespace" true
          (List.for_all (fun s -> s >= Ltbo.outlined_sym_base) syms));
    Alcotest.test_case "rounds compose with PlOpti" `Quick (fun () ->
        (* A wire request can carry both fields, and they compose.
           Round 1 of the composition is PlOpti(2) itself, so the rounds
           can only add outlining — and on the demo app round 2 does find
           second-order repeats, so dropped rounds fail the strict check. *)
        let apk =
          (Calibro_workload.Appgen.generate Calibro_workload.Apps.demo)
            .Calibro_workload.Appgen.app
        in
        let pl2 = { Config.cto_ltbo with name = "pl2"; parallel_trees = 2 } in
        let both = { pl2 with name = "pl2+rounds2"; ltbo_rounds = 2 } in
        (match Calibro_check.Oracle.run ~configs:[ both ] apk with
         | Error e -> Alcotest.failf "oracle: %s" e
         | Ok r ->
           Alcotest.(check (list string)) "oracle-clean" []
             (List.map Calibro_check.Oracle.divergence_to_string
                r.Calibro_check.Oracle.r_divergences));
        let outlined c =
          (Option.get (Pipeline.build ~cache:None ~config:c apk)
             .Pipeline.b_ltbo_stats)
            .Ltbo.s_outlined_functions
        in
        let n_pl2 = outlined pl2 and n_both = outlined both in
        Alcotest.(check bool)
          (Printf.sprintf "rounds add outlining (%d vs PlOpti(2) %d)" n_both
             n_pl2)
          true (n_both > n_pl2))
  ]

let suite = suite @ extension_suite

(* ---- Paper Table 2 regression: outline-and-patch worked example ---------- *)

let table2_suite =
  [ Alcotest.test_case "paper table 2: cbz patched from 0xc to 0x8" `Quick
      (fun () ->
        let open Calibro_aarch64 in
        let open Calibro_codegen in
        let seq rd =
          [ Isa.Ldr { size = Isa.W; rt = 2; rn = 0; imm = 0 };
            Isa.cmp_reg ~size:Isa.W 2 1;
            Isa.mov_reg ~size:Isa.X 3 rd ]
        in
        let code1 =
          [ Isa.Cbz { size = Isa.W; rt = 0; disp = 0xc } ]
          @ seq 4
          @ [ Isa.Ldr { size = Isa.X; rt = 3; rn = 0; imm = 0 }; Isa.Ret ]
        in
        let mk i instrs =
          let pc_rel =
            List.concat
              (List.mapi
                 (fun k ins ->
                   match Isa.pc_rel_disp ins with
                   | Some d -> [ (k * 4, (k * 4) + d) ]
                   | None -> [])
                 instrs)
          in
          let terminators =
            List.concat
              (List.mapi
                 (fun k ins -> if Isa.is_terminator ins then [ k * 4 ] else [])
                 instrs)
          in
          { Compiled_method.name =
              { Calibro_dex.Dex_ir.class_name = "ex";
                method_name = Printf.sprintf "m%d" i };
            slot = i; code = Encode.to_bytes instrs; relocs = [];
            meta = { Meta.empty with Meta.pc_rel; terminators };
            stackmap = []; num_params = 0; is_entry = false; cto_hits = [] }
        in
        let methods =
          mk 0 code1
          :: List.init 3 (fun i -> mk (i + 1) (seq (4 + i) @ [ Isa.Ret ]))
        in
        let result = Parallel.run ~k:1 ~rounds:1 methods in
        Alcotest.(check bool) "something outlined" true
          (result.Ltbo.stats.Ltbo.s_outlined_functions >= 1);
        let m0 = List.hd result.Ltbo.methods in
        (* Code 4 of the paper: the cbz displacement must have shrunk from
           0xc to 0x8 because the two outlined instructions became one bl. *)
        (match Decode.decode (Encode.word_of_bytes m0.Compiled_method.code 0) with
         | Isa.Cbz { disp = 8; _ } -> ()
         | i -> Alcotest.failf "cbz not repatched: %s" (Disasm.to_string i));
        (* the second word is the call to the outliner function *)
        (match Decode.decode (Encode.word_of_bytes m0.Compiled_method.code 4) with
         | Isa.Bl _ -> ()
         | i -> Alcotest.failf "expected bl, got %s" (Disasm.to_string i));
        (* the outlined body is exactly the two instructions + br x30 *)
        match result.Ltbo.outlined with
        | [ xf ] ->
          let words = Calibro_aarch64.Decode.of_bytes xf.Calibro_oat.Linker.xf_code in
          Alcotest.(check int) "3 words" 3 (Array.length words);
          (match words.(2) with
           | Isa.Br 30 -> ()
           | i -> Alcotest.failf "tail %s" (Disasm.to_string i))
        | l -> Alcotest.failf "expected one outlined fn, got %d" (List.length l))
  ]

let suite = suite @ table2_suite

let site_suite =
  [ Alcotest.test_case "rewrite sizes exactly; overlapping sites are typed"
      `Quick (fun () ->
        let open Calibro_aarch64 in
        let open Calibro_codegen in
        let instrs = List.init 6 (fun i -> Isa.mov_reg ~size:Isa.X i 7) in
        let cm =
          { Compiled_method.name =
              { Calibro_dex.Dex_ir.class_name = "ex"; method_name = "m" };
            slot = 0; code = Encode.to_bytes instrs; relocs = [];
            meta = Meta.empty; stackmap = []; num_params = 0;
            is_entry = false; cto_hits = [] }
        in
        let site off len = { Ltbo.st_off = off; st_len_words = len; st_sym = 9 } in
        let out = Ltbo.rewrite_method_sites cm [ site 4 2; site 12 3 ] in
        Alcotest.(check int) "6 words - 1 - 2" 12
          (Bytes.length out.Compiled_method.code);
        Alcotest.(check (list (pair int int))) "bl relocations" [ (4, 9); (8, 9) ]
          out.Compiled_method.relocs;
        List.iter
          (fun sites ->
            match Ltbo.rewrite_method_sites cm sites with
            | _ -> Alcotest.fail "bad sites accepted"
            | exception Ltbo.Ltbo_error _ -> ())
          [ [ site 4 3; site 8 2 ]; [ site 2 1 ]; [ site 16 3 ] ])
  ]

let suite = suite @ site_suite

(* ---- Structural invariants over a full generated app --------------------- *)

let invariant_suite =
  [ Alcotest.test_case "outlined bodies contain no separator-class instrs"
      `Quick (fun () ->
        let a = Calibro_workload.Appgen.generate Calibro_workload.Apps.demo in
        let b = build (Config.cto_ltbo_pl ~k:4 ()) a.Calibro_workload.Appgen.app in
        let oat = b.Pipeline.b_oat in
        let open Calibro_aarch64 in
        List.iter
          (fun (ol : Calibro_oat.Oat_file.outlined_entry) ->
            let words = ol.ol_size / 4 in
            for w = 0 to words - 1 do
              let i =
                Decode.decode
                  (Encode.word_of_bytes oat.Calibro_oat.Oat_file.text
                     (ol.ol_offset + (w * 4)))
              in
              if w = words - 1 then
                (match i with
                 | Isa.Br 30 -> ()
                 | i -> Alcotest.failf "bad tail %s" (Disasm.to_string i))
              else begin
                Alcotest.(check bool)
                  (Printf.sprintf "not terminator: %s" (Disasm.to_string i))
                  false (Isa.is_terminator i);
                Alcotest.(check bool)
                  (Printf.sprintf "not call: %s" (Disasm.to_string i))
                  false (Isa.is_call i);
                Alcotest.(check bool)
                  (Printf.sprintf "not pc-rel: %s" (Disasm.to_string i))
                  false (Isa.is_pc_relative i);
                Alcotest.(check bool)
                  (Printf.sprintf "no lr use: %s" (Disasm.to_string i))
                  false
                  (Isa.reads_lr i || Isa.writes_lr i)
              end
            done)
          oat.Calibro_oat.Oat_file.outlined);
    Alcotest.test_case "ltbo never grows any method" `Quick (fun () ->
        let a = Calibro_workload.Appgen.generate Calibro_workload.Apps.demo in
        let base = build Config.baseline a.Calibro_workload.Appgen.app in
        let cto = build Config.cto a.Calibro_workload.Appgen.app in
        let ltbo = build Config.cto_ltbo a.Calibro_workload.Appgen.app in
        (* per-method: ltbo method size <= cto method size (methods only
           shrink; the outlined functions live separately) *)
        List.iter2
          (fun (m1 : Calibro_oat.Oat_file.method_entry)
               (m2 : Calibro_oat.Oat_file.method_entry) ->
            Alcotest.(check bool)
              (Calibro_dex.Dex_ir.method_ref_to_string m1.me_name)
              true
              (m2.me_size <= m1.me_size))
          cto.Pipeline.b_oat.Calibro_oat.Oat_file.methods
          ltbo.Pipeline.b_oat.Calibro_oat.Oat_file.methods;
        ignore base);
    Alcotest.test_case "all stackmaps valid after full pipeline" `Quick
      (fun () ->
        let a = Calibro_workload.Appgen.generate Calibro_workload.Apps.demo in
        List.iter
          (fun config ->
            let b = build config a.Calibro_workload.Appgen.app in
            List.iter
              (fun (me : Calibro_oat.Oat_file.method_entry) ->
                match
                  Calibro_codegen.Stackmap.validate me.me_stackmap
                    ~code_size:me.me_size
                with
                | Ok () -> ()
                | Error e ->
                  Alcotest.failf "%s: %s"
                    (Calibro_dex.Dex_ir.method_ref_to_string me.me_name)
                    e)
              b.Pipeline.b_oat.Calibro_oat.Oat_file.methods)
          [ Config.baseline; Config.cto_ltbo; Config.cto_ltbo_pl ~k:4 () ]);
    Alcotest.test_case "pc-rel metadata matches decoded displacements" `Quick
      (fun () ->
        (* after outlining+patching, every recorded (off, target) pair must
           agree with the displacement encoded in the bytes *)
        let a = Calibro_workload.Appgen.generate Calibro_workload.Apps.demo in
        let b = build Config.cto_ltbo a.Calibro_workload.Appgen.app in
        let oat = b.Pipeline.b_oat in
        List.iter
          (fun (me : Calibro_oat.Oat_file.method_entry) ->
            List.iter
              (fun (off, tgt) ->
                let d =
                  Calibro_aarch64.Patch.read_disp oat.Calibro_oat.Oat_file.text
                    ~off:(me.me_offset + off)
                in
                Alcotest.(check int)
                  (Printf.sprintf "%s+%d"
                     (Calibro_dex.Dex_ir.method_ref_to_string me.me_name)
                     off)
                  (tgt - off) d)
              me.me_meta.Calibro_codegen.Meta.pc_rel)
          oat.Calibro_oat.Oat_file.methods)
  ]

let suite = suite @ invariant_suite
