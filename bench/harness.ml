(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (section 4) on the synthetic six-app workload.

   Absolute numbers differ from the paper (the substrate is a simulator at
   ~1000:1 scale; see DESIGN.md); each table prints the paper's values
   alongside so the shape comparison is direct. *)

open Calibro_core
open Calibro_workload
open Calibro_vm
module Profile = Calibro_profile.Profile
module Obs = Calibro_obs.Obs
module Clock = Calibro_obs.Clock
module Json = Calibro_obs.Json

let pct = Report.pct

(* ---- Per-app evaluation state ------------------------------------------ *)

type app_eval = {
  e_app : Appgen.app;
  e_base : Pipeline.build;
  e_cto : Pipeline.build;
  e_ltbo : Pipeline.build;       (* CTO+LTBO, single global suffix tree *)
  e_pl : Pipeline.build;         (* CTO+LTBO+PlOpti(8) *)
  e_hf : Pipeline.build;         (* CTO+LTBO+PlOpti+HfOpti *)
  e_hot : Calibro_dex.Dex_ir.method_ref list;
  (* script measurements: (cycles, resident code bytes) *)
  e_run_base : int * int;
  e_run_cto : int * int;
  e_run_pl : int * int;
  e_run_hf : int * int;
}

let measure oat script =
  let t = Appgen.run_script oat script in
  (Interp.cycles t, Interp.resident_code_bytes t)

let evaluate_app (profile : Appgen.profile) : app_eval =
  Printf.eprintf "[bench] evaluating %s...\n%!" profile.Appgen.p_name;
  let a = Appgen.generate profile in
  let apk = a.Appgen.app in
  let script = a.Appgen.app_script in
  let base = Pipeline.build ~config:Config.baseline apk in
  (* Figure 6 workflow: profile the baseline build, derive the hot set. *)
  let tb = Appgen.run_script base.Pipeline.b_oat script in
  let hot = Profile.hot_set (Profile.of_interp tb) in
  let cto = Pipeline.build ~config:Config.cto apk in
  let ltbo = Pipeline.build ~config:Config.cto_ltbo apk in
  let pl = Pipeline.build ~config:(Config.cto_ltbo_pl ~k:8 ()) apk in
  let hf =
    Pipeline.build ~config:(Config.cto_ltbo_pl_hf ~k:8 ~hot_methods:hot ()) apk
  in
  { e_app = a;
    e_base = base; e_cto = cto; e_ltbo = ltbo; e_pl = pl; e_hf = hf;
    e_hot = hot;
    e_run_base = (Interp.cycles tb, Interp.resident_code_bytes tb);
    e_run_cto = measure cto.Pipeline.b_oat script;
    e_run_pl = measure pl.Pipeline.b_oat script;
    e_run_hf = measure hf.Pipeline.b_oat script }

let app_names evals =
  List.map (fun e -> e.e_app.Appgen.app.Calibro_dex.Dex_ir.apk_name) evals

(* ---- Table 1: estimated code-size reduction ratios --------------------- *)

let paper_table1 = [ 25.4; 26.3; 24.5; 24.3; 27.7; 24.3 ]

let table1 evals =
  let ratios =
    List.map
      (fun e -> (Redundancy.analyze e.e_base.Pipeline.b_oat).Redundancy.a_ratio)
      evals
  in
  let avg xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
  Report.print
    { Report.title =
        "Table 1: estimated code size reduction ratios (suffix-tree analysis)";
      columns = app_names evals;
      rows =
        [ ("measured", List.map pct ratios @ [ pct (avg ratios) ]);
          ("paper",
           List.map (fun p -> Printf.sprintf "%.1f%%" p) paper_table1
           @ [ Printf.sprintf "%.1f%%" (avg paper_table1) ]) ] }

(* ---- Figure 2: the benefit model (exercised everywhere; shown here) ----- *)

let figure2 () =
  print_endline "== Figure 2: benefit model (L = length, N = repeats) ==";
  List.iter
    (fun (l, n) ->
      Printf.printf
        "  L=%2d N=%4d: original=%5d optimized=%5d saving=%5d ratio=%s\n" l n
        (Benefit.original_size ~length:l ~repeats:n)
        (Benefit.optimized_size ~length:l ~repeats:n)
        (Benefit.saving ~length:l ~repeats:n)
        (pct (Benefit.reduction_ratio ~length:l ~repeats:n)))
    [ (2, 1006); (2, 3); (5, 173); (9, 12); (20, 2) ]

(* ---- Figure 3: sequence length vs number of repeats --------------------- *)

let figure3 evals =
  let e =
    (* the paper analyses WeChat; fall back to the last app *)
    match
      List.find_opt
        (fun e -> e.e_app.Appgen.app.Calibro_dex.Dex_ir.apk_name = "Wechat")
        evals
    with
    | Some e -> e
    | None -> List.hd (List.rev evals)
  in
  let analysis = Redundancy.analyze e.e_base.Pipeline.b_oat in
  print_endline
    ("== Figure 3: sequence length vs number of repeats ("
     ^ e.e_app.Appgen.app.Calibro_dex.Dex_ir.apk_name
     ^ ") ==");
  print_endline "  length  repeats   (log-scale bar)";
  let maxn =
    List.fold_left (fun m (_, n) -> max m n) 1 analysis.Redundancy.a_histogram
  in
  List.iter
    (fun (len, n) ->
      if len <= 24 then begin
        let bar =
          String.make
            (max 1
               (int_of_float
                  (40.0 *. log (float_of_int (n + 1))
                   /. log (float_of_int (maxn + 1)))))
            '#'
        in
        Printf.printf "  %6d  %7d   %s\n" len n bar
      end)
    analysis.Redundancy.a_histogram;
  (* the paper's observation 2: short sequences dominate *)
  let mass below =
    List.fold_left
      (fun acc (l, n) -> if l <= below then acc + n else acc)
      0 analysis.Redundancy.a_histogram
  in
  let total = mass max_int in
  Printf.printf
    "  repeats with length <= 4: %s of all repeat occurrences\n"
    (pct (float_of_int (mass 4) /. float_of_int (max 1 total)))

(* ---- Figure 4: the three ART-specific patterns --------------------------- *)

let figure4 evals =
  print_endline "== Figure 4: ART-specific repetitive code patterns ==";
  List.iter
    (fun e ->
      let c = Redundancy.pattern_census e.e_base.Pipeline.b_oat in
      Printf.printf
        "  %-9s java-call (4a): %6d   runtime-call (4b): %6d   stack-check (4c): %6d\n"
        e.e_app.Appgen.app.Calibro_dex.Dex_ir.apk_name
        c.Redundancy.c_java_call c.Redundancy.c_runtime_call
        c.Redundancy.c_stack_check)
    evals;
  print_endline
    "  (paper, WeChat: java-call 1006k, stack-check 173k, runtime-call 217k)"

(* ---- Table 2: the outline-and-patch worked example ----------------------- *)

let table2 () =
  print_endline "== Table 2: code outlining and patching example ==";
  let open Calibro_aarch64 in
  let open Calibro_codegen in
  (* Code 1, as in the paper (with ldr x3, [x0] in place of the listing's
     ldr x3, [w0], which is not encodable). *)
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
  (* Four sibling methods containing the same (ldr w2,[x0]; cmp w2,w1)
     prefix so the benefit model fires (L=2 needs N>=4). *)
  let mk_method i instrs =
    let code = Encode.to_bytes instrs in
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
        { Calibro_dex.Dex_ir.class_name = "ex"; method_name = Printf.sprintf "m%d" i };
      slot = i; code; relocs = [];
      meta = { Meta.empty with Meta.pc_rel; terminators };
      stackmap = []; num_params = 0; is_entry = false; cto_hits = [] }
  in
  let methods =
    mk_method 0 code1
    :: List.init 3 (fun i ->
           mk_method (i + 1) (seq (4 + i) @ [ Isa.Ret ]))
  in
  let result = Parallel.run ~k:1 ~rounds:1 methods in
  let oat =
    Calibro_oat.Linker.link ~apk_name:"example" ~extra:result.Ltbo.outlined
      result.Ltbo.methods
  in
  let m0 = List.hd oat.Calibro_oat.Oat_file.methods in
  print_endline "  // Code 1: original code sequence";
  print_string
    (Disasm.dump ~base:0x138320 (Encode.to_bytes code1)
     |> String.split_on_char '\n'
     |> List.map (fun l -> if l = "" then l else "  " ^ l)
     |> String.concat "\n");
  print_endline "  // Code 2: outlined function";
  List.iter
    (fun (ol : Calibro_oat.Oat_file.outlined_entry) ->
      print_string
        (Disasm.dump
           ~base:(Abi.text_base + ol.ol_offset)
           (Bytes.sub oat.Calibro_oat.Oat_file.text ol.ol_offset ol.ol_size)
         |> String.split_on_char '\n'
         |> List.map (fun l -> if l = "" then l else "  " ^ l)
         |> String.concat "\n"))
    oat.Calibro_oat.Oat_file.outlined;
  print_endline "  // Code 4: rewritten and patched original sequence";
  print_string
    (Disasm.dump
       ~base:(Abi.text_base + m0.Calibro_oat.Oat_file.me_offset)
       (Bytes.sub oat.Calibro_oat.Oat_file.text m0.Calibro_oat.Oat_file.me_offset
          m0.Calibro_oat.Oat_file.me_size)
     |> String.split_on_char '\n'
     |> List.map (fun l -> if l = "" then l else "  " ^ l)
     |> String.concat "\n")

(* ---- Table 3: experimental setup ----------------------------------------- *)

let table3 () =
  print_endline "== Table 3: experimental setup ==";
  Printf.printf "  Device            simulated AArch64 machine (Calibro VM)\n";
  Printf.printf "  Cost model        base=1 mem=+1 call=+1 div=+8 icache-miss=+8/line\n";
  Printf.printf "  Memory map        text@%#x, runtime table@%#x, heap@%#x\n"
    Calibro_codegen.Abi.text_base Calibro_codegen.Abi.runtime_table_base
    Calibro_codegen.Abi.heap_base;
  Printf.printf "  Test set          6 synthetic apps (~1000:1 scale, seeded)\n";
  Printf.printf "  Parallel trees    8 (PlOpti), OCaml domains\n";
  Printf.printf "  Hot filtering     top functions covering 80%% of cycles\n"

(* ---- Table 4: OAT text-segment size reduction ----------------------------- *)

let paper_table4 =
  [ ("CTO+LTBO", [ 18.49; 17.78; 19.32; 18.62; 21.08; 19.85 ]);
    ("CTO+LTBO+PlOpti", [ 17.06; 16.89; 16.29; 15.79; 17.16; 15.21 ]);
    ("CTO+LTBO+PlOpti+HfOpti", [ 15.69; 15.11; 15.15; 14.57; 16.18; 14.43 ]) ]

let table4 evals =
  let sizes f = List.map (fun e -> Pipeline.text_size (f e)) evals in
  let base = sizes (fun e -> e.e_base) in
  let row name f =
    (name, List.map (fun e -> Report.kib (Pipeline.text_size (f e))) evals)
  in
  let ratio_row name f =
    let rs =
      List.map2
        (fun b e ->
          (float_of_int b -. float_of_int (Pipeline.text_size (f e)))
          /. float_of_int b)
        base evals
    in
    ( name,
      List.map pct rs
      @ [ pct (List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs)) ] )
  in
  let paper_row (name, vals) =
    ( "paper " ^ name,
      List.map (Printf.sprintf "%.2f%%") vals
      @ [ Printf.sprintf "%.2f%%"
            (List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals))
        ] )
  in
  Report.print
    { Report.title = "Table 4: code size of the OAT text segment";
      columns = app_names evals;
      rows =
        [ row "Baseline" (fun e -> e.e_base);
          row "CTO" (fun e -> e.e_cto);
          row "CTO+LTBO" (fun e -> e.e_ltbo);
          row "CTO+LTBO+PlOpti" (fun e -> e.e_pl);
          row "CTO+LTBO+PlOpti+HfOpti" (fun e -> e.e_hf);
          ratio_row "CTO reduction" (fun e -> e.e_cto);
          ratio_row "CTO+LTBO reduction" (fun e -> e.e_ltbo);
          ratio_row "CTO+LTBO+PlOpti reduction" (fun e -> e.e_pl);
          ratio_row "CTO+LTBO+PlOpti+HfOpti red." (fun e -> e.e_hf) ]
        @ List.map paper_row paper_table4 }

(* ---- Table 5: memory usage ------------------------------------------------ *)

let paper_table5 =
  [ ("CTO", [ 1.10; 2.74; 1.59; -0.08; 3.10; 3.74 ]);
    ("CTO+LTBO", [ 7.26; 6.84; 7.26; 6.55; 5.62; 7.40 ]) ]

let memory_of e (build : Pipeline.build) (cycles_resident : int * int) =
  ignore e;
  let _, resident = cycles_resident in
  resident + Calibro_oat.Oat_file.data_size build.Pipeline.b_oat

let table5 evals =
  let mem_base = List.map (fun e -> memory_of e e.e_base e.e_run_base) evals in
  let mem_cto = List.map (fun e -> memory_of e e.e_cto e.e_run_cto) evals in
  let mem_pl = List.map (fun e -> memory_of e e.e_pl e.e_run_pl) evals in
  let ratio_row name ms =
    let rs =
      List.map2
        (fun b m -> (float_of_int b -. float_of_int m) /. float_of_int b)
        mem_base ms
    in
    ( name,
      List.map pct rs
      @ [ pct (List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs)) ] )
  in
  let paper_row (name, vals) =
    ( "paper " ^ name,
      List.map (Printf.sprintf "%.2f%%") vals
      @ [ Printf.sprintf "%.2f%%"
            (List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals))
        ] )
  in
  Report.print
    { Report.title =
        "Table 5: OAT memory usage during the interaction script (code + data)";
      columns = app_names evals;
      rows =
        [ ("Baseline", List.map Report.kib mem_base);
          ("CTO", List.map Report.kib mem_cto);
          ("CTO+LTBO+PlOpti", List.map Report.kib mem_pl);
          ratio_row "CTO reduction" mem_cto;
          ratio_row "CTO+LTBO+PlOpti reduction" mem_pl ]
        @ List.map paper_row paper_table5 }

(* ---- Table 6: building time ------------------------------------------------ *)

let paper_table6 =
  [ ("CTO+LTBO", [ 503.0; 550.0; 461.0; 471.0; 492.0; 460.0 ]);
    ("CTO+LTBO+PlOpti", [ 71.0; 71.0; 69.0; 70.0; 75.0; 69.0 ]) ]

let table6 evals =
  (* Re-time builds cleanly (three repetitions, best-of) on the monotonic
     clock — wall time can be stepped mid-measurement. *)
  let time_build config apk =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Clock.now_ns () in
      ignore (Pipeline.build ~config apk);
      best := min !best (Clock.since_s t0)
    done;
    !best
  in
  let rows =
    List.map
      (fun e ->
        let apk = e.e_app.Appgen.app in
        let b = time_build Config.baseline apk in
        let l = time_build Config.cto_ltbo apk in
        let p = time_build (Config.cto_ltbo_pl ~k:8 ()) apk in
        (b, l, p))
      evals
  in
  let growth x b = 100.0 *. (x -. b) /. b in
  let avg f =
    List.fold_left (fun a r -> a +. f r) 0.0 rows /. float_of_int (List.length rows)
  in
  let paper_row (name, vals) =
    ( "paper " ^ name,
      List.map (Printf.sprintf "%.0f%%") vals
      @ [ Printf.sprintf "%.1f%%"
            (List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals))
        ] )
  in
  Report.print
    { Report.title = "Table 6: building time (best of 3)";
      columns = app_names evals;
      rows =
        [ ("Baseline", List.map (fun (b, _, _) -> Report.seconds b) rows);
          ("CTO+LTBO (1 tree)", List.map (fun (_, l, _) -> Report.seconds l) rows);
          ("CTO+LTBO+PlOpti(8)", List.map (fun (_, _, p) -> Report.seconds p) rows);
          ("CTO+LTBO growth",
           List.map (fun (b, l, _) -> Printf.sprintf "%.0f%%" (growth l b)) rows
           @ [ Printf.sprintf "%.1f%%" (avg (fun (b, l, _) -> growth l b)) ]);
          ("CTO+LTBO+PlOpti growth",
           List.map (fun (b, _, p) -> Printf.sprintf "%.0f%%" (growth p b)) rows
           @ [ Printf.sprintf "%.1f%%" (avg (fun (b, _, p) -> growth p b)) ]) ]
        @ List.map paper_row paper_table6 }

(* ---- Table 7: runtime performance (CPU cycle counts) ----------------------- *)

let paper_table7 =
  [ ("CTO+LTBO+PlOpti", [ 2.09; 1.82; 1.59; 2.23; 0.88; 0.43 ]);
    ("CTO+LTBO+PlOpti+HfOpti", [ 0.66; 1.33; 0.83; 2.11; 0.41; 0.03 ]) ]

let table7 evals =
  let cyc f = List.map (fun e -> fst (f e)) evals in
  let base = cyc (fun e -> e.e_run_base) in
  let degr_row name ms =
    let rs =
      List.map2
        (fun b m -> (float_of_int m -. float_of_int b) /. float_of_int b)
        base ms
    in
    ( name,
      List.map pct rs
      @ [ pct (List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs)) ] )
  in
  let paper_row (name, vals) =
    ( "paper " ^ name,
      List.map (Printf.sprintf "%.2f%%") vals
      @ [ Printf.sprintf "%.2f%%"
            (List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals))
        ] )
  in
  Report.print
    { Report.title = "Table 7: runtime performance (CPU cycle count)";
      columns = app_names evals;
      rows =
        [ ("Baseline", List.map Report.mega base);
          ("CTO+LTBO+PlOpti", List.map Report.mega (cyc (fun e -> e.e_run_pl)));
          ("CTO+LTBO+PlOpti+HfOpti",
           List.map Report.mega (cyc (fun e -> e.e_run_hf)));
          degr_row "PlOpti degradation" (cyc (fun e -> e.e_run_pl));
          degr_row "PlOpti+HfOpti degradation" (cyc (fun e -> e.e_run_hf)) ]
        @ List.map paper_row paper_table7 }

(* ---- Figure 6: hot-function-filtering workflow ------------------------------ *)

let figure6 evals =
  print_endline "== Figure 6: hot function filtering workflow ==";
  List.iter
    (fun e ->
      let hot_mass =
        List.fold_left
          (fun acc (me : Calibro_oat.Oat_file.method_entry) ->
            if List.mem me.Calibro_oat.Oat_file.me_name e.e_hot then
              acc + me.Calibro_oat.Oat_file.me_size
            else acc)
          0 e.e_base.Pipeline.b_oat.Calibro_oat.Oat_file.methods
      in
      Printf.printf
        "  %-9s profile -> %3d hot methods (%s of text) -> guided rebuild\n"
        e.e_app.Appgen.app.Calibro_dex.Dex_ir.apk_name
        (List.length e.e_hot)
        (pct (float_of_int hot_mass /. float_of_int (Pipeline.text_size e.e_base))))
    evals

(* ---- LTBO statistics (supplementary) ----------------------------------------- *)

let ltbo_stats evals =
  print_endline "== LTBO statistics (single global tree) ==";
  List.iter
    (fun e ->
      match e.e_ltbo.Pipeline.b_ltbo_stats with
      | None -> ()
      | Some s ->
        Printf.printf
          "  %-9s candidates=%4d elements=%7d tree-nodes=%8d repeats=%6d outlined=%5d occurrences=%6d saved=%6d instrs\n"
          e.e_app.Appgen.app.Calibro_dex.Dex_ir.apk_name
          s.Ltbo.s_candidate_methods s.Ltbo.s_sequence_elements
          s.Ltbo.s_tree_nodes s.Ltbo.s_repeats_considered
          s.Ltbo.s_outlined_functions s.Ltbo.s_occurrences_replaced
          s.Ltbo.s_instructions_saved)
    evals

(* ---- Ablation: the K tradeoff of section 3.4.1 -------------------------------- *)

(* "the trade-offs between building time and the code size reduction can be
   selected by adjusting the number of paralleled suffix trees" *)
let ablation_k () =
  print_endline "== Ablation: number of paralleled suffix trees (Toutiao) ==";
  let a = Appgen.generate Apps.toutiao in
  let apk = a.Appgen.app in
  let base = Pipeline.build ~config:Config.baseline apk in
  Printf.printf "  %4s  %10s  %10s  %12s\n" "K" "text" "reduction" "ltbo time";
  List.iter
    (fun k ->
      let config =
        if k = 1 then Config.cto_ltbo else Config.cto_ltbo_pl ~k ()
      in
      let t0 = Clock.now_ns () in
      let b = Pipeline.build ~config apk in
      let dt = Clock.since_s t0 in
      Printf.printf "  %4d  %10s  %10s  %10.2fs\n%!" k
        (Report.kib (Pipeline.text_size b))
        (pct (Pipeline.reduction_vs ~baseline:base b))
        dt)
    [ 1; 2; 4; 8; 16; 32 ]

(* ---- Ablation: minimum candidate sequence length ------------------------------- *)

let ablation_minlen () =
  print_endline "== Ablation: minimum outlined sequence length (Toutiao) ==";
  let a = Appgen.generate Apps.toutiao in
  let apk = a.Appgen.app in
  let base = Pipeline.build ~config:Config.baseline apk in
  Printf.printf "  %6s  %10s  %10s  %9s\n" "minlen" "text" "reduction"
    "outlined";
  List.iter
    (fun min_len ->
      let config = { Config.cto_ltbo with Config.ltbo_min_length = min_len } in
      let b = Pipeline.build ~config apk in
      let outlined =
        match b.Pipeline.b_ltbo_stats with
        | Some s -> s.Ltbo.s_outlined_functions
        | None -> 0
      in
      Printf.printf "  %6d  %10s  %10s  %9d\n%!" min_len
        (Report.kib (Pipeline.text_size b))
        (pct (Pipeline.reduction_vs ~baseline:base b))
        outlined)
    [ 2; 3; 4; 6; 8 ]

(* ---- Ablation: CTO vs LTBO interaction ------------------------------------------ *)

let ablation_cto_ltbo () =
  print_endline "== Ablation: does LTBO subsume CTO? (Toutiao) ==";
  let a = Appgen.generate Apps.toutiao in
  let apk = a.Appgen.app in
  let base = Pipeline.build ~config:Config.baseline apk in
  let ltbo_only =
    Pipeline.build ~config:{ Config.cto_ltbo with Config.cto = false } apk
  in
  let both = Pipeline.build ~config:Config.cto_ltbo apk in
  Printf.printf "  baseline:     %s\n" (Report.kib (Pipeline.text_size base));
  Printf.printf "  LTBO only:    %s (%s)\n"
    (Report.kib (Pipeline.text_size ltbo_only))
    (pct (Pipeline.reduction_vs ~baseline:base ltbo_only));
  Printf.printf "  CTO + LTBO:   %s (%s)\n"
    (Report.kib (Pipeline.text_size both))
    (pct (Pipeline.reduction_vs ~baseline:base both));
  print_endline
    "  (the ART call patterns contain blr/bl, which generic binary\n\
    \   outlining must treat as separators -- CTO is what reclaims them;\n\
    \   see DESIGN.md section 4.1)"

(* ---- Ablation: multi-round outlining (related-work extension) ----------------- *)

let ablation_rounds () =
  print_endline "== Ablation: whole-program outlining rounds (Toutiao) ==";
  let a = Appgen.generate Apps.toutiao in
  let apk = a.Appgen.app in
  let base = Pipeline.build ~config:Config.baseline apk in
  List.iter
    (fun rounds ->
      let config = { Config.cto_ltbo with Config.ltbo_rounds = rounds } in
      let b = Pipeline.build ~config apk in
      let outlined =
        match b.Pipeline.b_ltbo_stats with
        | Some s -> s.Ltbo.s_outlined_functions
        | None -> 0
      in
      Printf.printf "  rounds=%d: %s (%s reduction, %d outlined functions)\n%!"
        rounds
        (Report.kib (Pipeline.text_size b))
        (pct (Pipeline.reduction_vs ~baseline:base b))
        outlined)
    [ 1; 2; 3 ]

(* ---- Digest: behavior-preservation evidence ------------------------------- *)

(* One MD5 per (app, configuration) over the OAT text segment. The sizes in
   bench/baseline.json prove nothing about *content*; this is the
   byte-for-byte witness used when refactoring the detection hot path.
   Produced OAT bytes never depend on hash values, so any divergence from
   the committed bench/digests.txt is a real miscompile.

   After the oracle matrix come the store paths at PlOpti(8): bound
   against a dictionary mined from the six plain builds (as `bench store`
   does), shelved at coverage 0.8 of the baseline run's profile (as
   `bench train` does), and both at once. *)
let digests () =
  print_endline "== OAT text digests: evaluation apps x oracle matrix ==";
  let line apk name (b : Pipeline.build) =
    Printf.printf "  %-10s %-24s %s\n%!"
      apk.Calibro_dex.Dex_ir.apk_name name
      (Calibro_chash.Chash.to_hex
         (Calibro_chash.Chash.bytes b.Pipeline.b_oat.Calibro_oat.Oat_file.text))
  in
  let per_app =
    List.map
      (fun (p : Appgen.profile) ->
        let a = Appgen.generate p in
        let apk = a.Appgen.app in
        let base = Pipeline.build ~config:Config.baseline apk in
        let tb = Appgen.run_script base.Pipeline.b_oat a.Appgen.app_script in
        let profile = Profile.of_interp tb in
        let hot = Profile.hot_set profile in
        List.iter
          (fun (c : Config.t) ->
            line apk c.Config.name (Pipeline.build ~config:c apk))
          (Config.baseline :: Config.matrix ~hot_methods:hot ());
        (apk, Calibro_shelve.Shelve.of_profile ~coverage:0.8 profile))
      Apps.all
  in
  let pl8 = Config.cto_ltbo_pl ~k:8 () in
  let dict =
    Calibro_dict.Dict.linker_dict
      (Calibro_dict.Dict.of_oats
         (List.map
            (fun (apk, _) -> (Pipeline.build ~config:pl8 apk).Pipeline.b_oat)
            per_app))
  in
  List.iter
    (fun (apk, plan) ->
      line apk "CTO+LTBO+PlOpti(8)+dict" (Pipeline.build ~config:pl8 ~dict apk);
      line apk "CTO+LTBO+PlOpti(8)+shelve"
        (Pipeline.build ~config:pl8 ~shelve:plan apk);
      line apk "CTO+LTBO+PlOpti(8)+dict+shelve"
        (Pipeline.build ~config:pl8 ~dict ~shelve:plan apk))
    per_app

(* ---- The detection micro-benchmark (bench detect) -------------------------- *)

(* Compiled methods + candidate indices of the largest evaluation app
   (Kuaishou), from Ltbo.candidates as in the LTBO driver: detection
   throughput here is what Table 6 says must stay cheap enough to live
   inside dex2oat. *)
let detect_setup () =
  let a = Appgen.generate Apps.kuaishou in
  let methods = Calibro_dex.Dex_ir.methods_of_apk a.Appgen.app in
  let slots = Hashtbl.create (List.length methods) in
  List.iteri
    (fun i (m : Calibro_dex.Dex_ir.meth) -> Hashtbl.replace slots m.name i)
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
  (Array.of_list compiled, Ltbo.candidates compiled)

let best_of_3 f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Clock.now_ns () in
    ignore (Sys.opaque_identity (f ()));
    best := min !best (Clock.since_s t0)
  done;
  !best

(* Best-of-3 full-detection throughput in sequence elements per second, the
   number committed to bench/baseline.json and gated in CI. *)
let detect_eps () =
  let marr, candidates = detect_setup () in
  let options = Ltbo.default_options in
  let elements =
    let _, st = Ltbo.detect ~options marr candidates in
    st.Ltbo.s_sequence_elements
  in
  let dt = best_of_3 (fun () -> Ltbo.detect ~options marr candidates) in
  (float_of_int elements /. dt, elements)

let detect_bench () =
  print_endline
    "== bench detect: suffix-tree detection hot path (Kuaishou) ==";
  let marr, candidates = detect_setup () in
  let options = Ltbo.default_options in
  let decisions, st = Ltbo.detect ~options marr candidates in
  let elements = st.Ltbo.s_sequence_elements in
  Printf.printf
    "  candidates=%d elements=%d tree-nodes=%d repeats=%d decisions=%d\n%!"
    st.Ltbo.s_candidate_methods elements st.Ltbo.s_tree_nodes
    st.Ltbo.s_repeats_considered (List.length decisions);
  (* the two phases the flat representation targets, measured in isolation
     on the same sequence shape (raw OAT words, embedded data separated) *)
  let seq =
    Redundancy.sequence_of_oat
      (Pipeline.build ~config:Config.baseline
         (Appgen.generate Apps.kuaishou).Appgen.app)
        .Pipeline.b_oat
  in
  let n = float_of_int (Array.length seq) in
  let t_build = best_of_3 (fun () -> Calibro_suffix_tree.Suffix_tree.build seq) in
  let tree = Calibro_suffix_tree.Suffix_tree.build seq in
  let t_fold =
    best_of_3 (fun () ->
        Calibro_suffix_tree.Suffix_tree.fold_repeats ~min_length:2
          ~max_length:64 tree ~init:0
          ~f:(fun acc (_ : Calibro_suffix_tree.Suffix_tree.repeat) -> acc + 1))
  in
  Printf.printf "  tree_build:   %8.4fs  %12.0f elements/s\n" t_build
    (n /. t_build);
  Printf.printf "  fold_repeats: %8.4fs  %12.0f elements/s\n" t_fold
    (n /. t_fold);
  let eps, _ = detect_eps () in
  Printf.printf "  ltbo_detect (end to end): %12.0f elements/s\n%!" eps;
  (* Where one detection's time goes, read from its Obs spans: the
     fastest of three runs. *)
  let phases =
    [ "ltbo.map_sequence"; "ltbo.tree_build"; "ltbo.fold_repeats";
      "ltbo.select" ]
  in
  let span_s name =
    List.fold_left
      (fun acc (e : Obs.span_event) ->
        if e.Obs.ev_name = name then acc +. (Int64.to_float e.Obs.ev_dur_ns /. 1e9)
        else acc)
      0.0 (Obs.events ())
  in
  let runs =
    List.init 3 (fun _ ->
        Obs.reset ();
        ignore (Ltbo.detect ~options marr candidates);
        (span_s "ltbo.detect", List.map span_s phases))
  in
  let total, split =
    List.fold_left
      (fun ((bt, _) as best) ((t, _) as run) -> if t < bt then run else best)
      (List.hd runs) runs
  in
  Printf.printf "  one ltbo.detect: %.4fs\n" total;
  List.iter2
    (fun name s ->
      Printf.printf "    %-18s %8.4fs  %5.1f%%\n" name s (100. *. s /. total))
    phases split;
  Printf.printf "%!"

(* ---- Incremental-rebuild micro-benchmark (bench incr) ---------------------- *)

module Cache = Calibro_cache.Cache

(* Cold vs warm rebuild of the largest evaluation app (Kuaishou) under
   CTO+LTBO+PlOpti(8) after a one-method edit. Each seed gets a fresh
   cache primed with the unedited app, so the timed build is exactly
   "developer edits one method, rebuilds": every untouched method hits the
   compile cache and 7 of 8 PlOpti detection groups hit the detection
   cache (the partition is seeded, so an edit only dirties its own group).
   The warm OAT must be byte-identical to a cold build of the same mutant
   — speed that changes bytes is a miscompile, and the gate fails on it
   unconditionally. *)

type incr_seed = {
  i_seed : int;
  i_warm_s : float;
  i_speedup : float;
  i_byte_equal : bool;
}

type incr_result = { i_cold_s : float; i_seeds : incr_seed list }

let incr_min_speedup r =
  List.fold_left (fun acc s -> min acc s.i_speedup) infinity r.i_seeds

let incr_failures r =
  Gate.violated
    (List.map
       (fun s ->
         ( s.i_byte_equal,
           Printf.sprintf
             "incr seed %d: warm rebuild is not byte-identical to cold"
             s.i_seed ))
       r.i_seeds)

let incr_measure () : incr_result =
  let config = Config.cto_ltbo_pl ~k:8 () in
  let a = Appgen.generate Apps.kuaishou in
  let apk = a.Appgen.app in
  Printf.eprintf "[incr] cold build (best of 3)...\n%!";
  let cold_s =
    best_of_3 (fun () -> Pipeline.build ~cache:None ~config apk)
  in
  let seeds =
    List.map
      (fun seed ->
        let apk', edited = Mutate.edit_one ~seed apk in
        Printf.eprintf "[incr] seed %d: edit %s, warm rebuild...\n%!" seed
          (Calibro_dex.Dex_ir.method_ref_to_string edited);
        let cache = Cache.create () in
        ignore (Pipeline.build ~cache:(Some cache) ~config apk);
        let t0 = Clock.now_ns () in
        let warm = Pipeline.build ~cache:(Some cache) ~config apk' in
        let warm_s = Clock.since_s t0 in
        let cold = Pipeline.build ~cache:None ~config apk' in
        let dg (b : Pipeline.build) =
          (* Compared for equality only: the cold twin's text digest. *)
          Calibro_chash.Chash.bytes b.Pipeline.b_oat.Calibro_oat.Oat_file.text
        in
        { i_seed = seed;
          i_warm_s = warm_s;
          i_speedup = cold_s /. warm_s;
          i_byte_equal = dg warm = dg cold })
      [ 1; 2; 3 ]
  in
  { i_cold_s = cold_s; i_seeds = seeds }

let incr_report r =
  Printf.printf "  cold build: %.3fs (best of 3)\n" r.i_cold_s;
  List.iter
    (fun s ->
      Printf.printf "  seed %d: warm %.3fs  speedup %5.1fx  bytes %s\n"
        s.i_seed s.i_warm_s s.i_speedup
        (if s.i_byte_equal then "identical" else "DIFFER"))
    r.i_seeds;
  Printf.printf "  min speedup: %.1fx\n%!" (incr_min_speedup r)

(* ---- Crosscheck: the differential oracle over the evaluation apps ---------- *)

(* Not a paper table: runs the lib/check differential oracle (baseline vs
   every Calibro configuration, structural invariants included) on each
   of the six evaluation apps plus the demo app. Exits nonzero on any
   divergence, so CI can gate on it. *)
let crosscheck () =
  print_endline "== Crosscheck: differential oracle, all apps x all configs ==";
  let failed = ref false in
  List.iter
    (fun (p : Appgen.profile) ->
      let a = Appgen.generate p in
      let t0 = Clock.now_ns () in
      match Calibro_check.Oracle.run a.Appgen.app with
      | Error e ->
        failed := true;
        Printf.printf "  %-10s ERROR: %s\n%!" p.Appgen.p_name e
      | Ok r ->
        if Calibro_check.Oracle.ok r then
          Printf.printf
            "  %-10s ok: %d configs x %d calls agree with baseline (%.1fs)\n%!"
            p.Appgen.p_name
            (List.length r.Calibro_check.Oracle.r_configs)
            r.Calibro_check.Oracle.r_calls
            (Clock.since_s t0)
        else begin
          failed := true;
          Printf.printf "  %-10s FAILED:\n" p.Appgen.p_name;
          List.iter
            (fun d ->
              print_endline
                ("    " ^ Calibro_check.Oracle.divergence_to_string d))
            r.Calibro_check.Oracle.r_divergences
        end)
    (Apps.demo :: Apps.all);
  if !failed then exit 1

(* ---- Structured metrics export (the --metrics / --trace flags) ----------- *)

(* Per-app text sizes under every configuration, as exact integers: the
   "bench" section of the metrics document (per-phase durations live in
   its "spans" section, recorded by the pipeline itself). *)
let bench_json (evals : app_eval list) : Json.t =
  let app_obj e =
    let size name b = (name, Json.Int (Pipeline.text_size b)) in
    let red name b =
      (name, Json.Float (Pipeline.reduction_vs ~baseline:e.e_base b))
    in
    ( e.e_app.Appgen.app.Calibro_dex.Dex_ir.apk_name,
      Json.Obj
        [ size "text_baseline" e.e_base;
          size "text_cto" e.e_cto;
          size "text_cto_ltbo" e.e_ltbo;
          size "text_cto_ltbo_pl" e.e_pl;
          size "text_cto_ltbo_pl_hf" e.e_hf;
          red "reduction_cto_ltbo_pl" e.e_pl;
          red "reduction_cto_ltbo_pl_hf" e.e_hf ] )
  in
  Json.Obj [ ("apps", Json.Obj (List.map app_obj evals)) ]


(* ---- The CI performance gate --------------------------------------------- *)

(* Every evaluation app built under the baseline and under
   CTO+LTBO+PlOpti(8): text sizes and the total build time. *)
let gate_apps () =
  let t0 = Clock.now_ns () in
  let apps =
    List.map
      (fun (p : Appgen.profile) ->
        Printf.eprintf "[gate] building %s...\n%!" p.Appgen.p_name;
        let apk = (Appgen.generate p).Appgen.app in
        let size config = Pipeline.text_size (Pipeline.build ~config apk) in
        let base = size Config.baseline
        and pl = size (Config.cto_ltbo_pl ~k:8 ()) in
        ( apk.Calibro_dex.Dex_ir.apk_name,
          Json.Obj
            [ ("text_base", Json.Int base);
              ("text_pl", Json.Int pl);
              ( "reduction_pl",
                Json.Float
                  ((float_of_int base -. float_of_int pl) /. float_of_int base)
              ) ] ))
      Apps.all
  in
  (Json.Obj apps, Clock.since_s t0)

(* Bytes [Dex_text.parse] allocates per byte of the six apps' printed
   text. An allocation count on the main domain repeats exactly, so the
   gate can hold the parse layer to a tight envelope on any machine. *)
let parse_alloc_per_byte () =
  let texts =
    List.map
      (fun p -> Calibro_dex.Dex_text.to_string (Appgen.generate p).Appgen.app)
      Apps.all
  in
  (* from an empty minor heap: otherwise the count drifts by a few % *)
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  List.iter (fun t -> ignore (Calibro_dex.Dex_text.parse t)) texts;
  let allocated = Gc.allocated_bytes () -. a0 in
  allocated /. float_of_int (List.fold_left (fun n t -> n + String.length t) 0 texts)

(* Words [Passes.optimize] allocates per IR instruction over Kuaishou's
   methods, on the main domain: like the parse count, it repeats exactly,
   so the gate holds the IR-pass layer to a tight envelope. *)
let optimize_alloc_per_insn () =
  let graphs =
    Calibro_dex.Dex_ir.methods_of_apk (Appgen.generate Apps.kuaishou).Appgen.app
    |> List.map Calibro_hgraph.Hgraph.of_method
  in
  let insns =
    List.fold_left (fun n g -> n + Calibro_hgraph.Hgraph.size g) 0 graphs
  in
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  List.iter (fun g -> ignore (Calibro_hgraph.Passes.optimize g)) graphs;
  let words = (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8) in
  words /. float_of_int insns

(* One gate measurement: the bench section every row reads (and
   --metrics exports), and the union of the measurement modules'
   correctness failures, which fail the gate and block `baseline`
   whatever the committed bounds say. *)
let gate_measure () : Json.t * string list =
  let step what f = Printf.eprintf "[gate] measuring %s...\n%!" what; f () in
  let parse_alloc = step "parse allocation" parse_alloc_per_byte in
  let optimize_alloc = step "IR pass allocation" optimize_alloc_per_insn in
  let apps, total_s = gate_apps () in
  let eps, elements = step "detection throughput" detect_eps in
  let incr = step "incremental rebuild" incr_measure in
  let serve = step "served-build throughput" Serve.measure in
  let fleet = step "fleet throughput (3 shards + router)" Serve.fleet_measure in
  let store = step "store-wide dictionary savings" Store.measure in
  let pgo = step "the PGO drift/re-link loop" Pgo_bench.measure in
  let train =
    step "the shelve x outline frontier and release train" Train_bench.measure
  in
  ( Json.Obj
      [ ("apps", apps);
        ("total_build_s", Json.Float total_s);
        ( "detect",
          Json.Obj
            [ ("elements", Json.Int elements);
              ("elements_per_s", Json.Float eps) ] );
        ( "incr",
          Json.Obj
            [ ("cold_s", Json.Float incr.i_cold_s);
              ("warm_speedup", Json.Float (incr_min_speedup incr));
              ("byte_equal", Json.Bool (incr_failures incr = [])) ] );
        ("serve", Serve.section serve);
        ("fleet", Serve.fleet_section fleet);
        ("store", Store.section store);
        ("pgo", Pgo_bench.section pgo);
        ("train", Train_bench.section train);
        ("dex", Json.Obj [ ("parse_alloc_bytes_per_byte", Json.Float parse_alloc) ]);
        ( "ir",
          Json.Obj
            [ ("optimize_alloc_words_per_insn", Json.Float optimize_alloc) ] )
      ],
    List.concat
      [ incr_failures incr;
        Serve.failures serve;
        Serve.fleet_failures fleet;
        Store.failures store;
        Pgo_bench.failures pgo;
        Train_bench.failures train ] )

(* Every bound in bench/baseline.json, in the file's key order. Timings
   are machine-dependent, so their bounds are budgets: `baseline` commits
   3x the measured time (1/3 the measured rate) and the gate fails at
   1.25x that envelope (0.75x that floor), so slower CI runners pass
   while a blow-up does not. Sizes, byte counts and cycle counts are
   deterministic and committed exactly. *)
let gate_rows : Gate.row list =
  let open Gate in
  (* the measured [key] of [section], bounded by its [bound] key there *)
  let row section key bound kind =
    { measured = section @ [ key ]; committed = section @ [ bound ]; kind }
  in
  let rate_floor digits = Floor (Round (1. /. 3., digits), 0.75)
  and time_envelope digits = Envelope (Round (3., digits), 1.25)
  and exact_floor = Floor (Same, 1.) in
  List.concat_map
    (fun (p : Appgen.profile) ->
      let app = [ "apps"; p.Appgen.p_name ] in
      [ row app "text_base" "text_base" Exact;
        row app "text_pl" "text_pl" Exact;
        (* the tolerance only absorbs float formatting *)
        row app "reduction_pl" "reduction_pl" (Near_floor 0.001) ])
    Apps.all
  @ [ row [] "total_build_s" "build_time_envelope_s" (time_envelope 2);
      row [ "detect" ] "elements" "elements" Exact;
      row [ "detect" ] "elements_per_s" "elements_per_s_floor" (rate_floor 0);
      row [ "incr" ] "warm_speedup" "warm_speedup_floor" (rate_floor 2);
      row [ "serve" ] "throughput_builds_per_s" "throughput_floor_builds_per_s"
        (rate_floor 2);
      row [ "serve" ] "p95_latency_s" "p95_latency_envelope_s"
        (time_envelope 3);
      row [ "fleet" ] "throughput_builds_per_s" "throughput_floor_builds_per_s"
        (rate_floor 2);
      row [ "fleet" ] "p95_latency_s" "p95_latency_envelope_s"
        (time_envelope 3);
      (* 3 shards (one drained mid-run) must clear half of this run's
         single daemon, or sharding is not buying throughput. *)
      { measured = [ "fleet"; "throughput_builds_per_s" ];
        committed = [];
        kind = Same_run ([ "serve"; "throughput_builds_per_s" ], 0.5) };
      row [ "store" ] "saved_bytes" "saved_bytes_floor" exact_floor;
      (* Half the stale penalty: an optimizer change may shrink it, but
         drift that stops hurting would leave the bench proving nothing. *)
      row [ "pgo" ] "stale_degradation_pct" "stale_degradation_floor_pct"
        (Floor (Round (0.5, 2), 1.));
      row [ "pgo" ] "relink_degradation_pct" "relink_degradation_envelope_pct"
        (Envelope (Const Pgo_bench.table7_envelope_pct, 1.));
      (* the hits the re-link's own build scored: the cache holds exactly
         the old-profile build when it runs, so the count is exact *)
      row [ "pgo" ] "relink_cache_hits" "relink_cache_hits_floor" exact_floor;
      row [ "train" ] "text_saved" "text_saved_floor" exact_floor;
      row [ "train" ] "cycle_ratio" "cycle_ratio_envelope"
        (Envelope (Pad 3, 1.));
      row [ "train" ] "store_saved_shelved" "store_saved_shelved_floor"
        exact_floor;
      row [ "train" ] "incr_hit_rate" "incr_hit_rate_floor" (Floor (Pad 3, 1.));
      (* concurrent clients race on cold versions *)
      row [ "train" ] "fleet_hit_rate" "fleet_hit_rate_floor"
        (Floor (Round (0.5, 3), 1.));
      row [ "train" ] "pgo_shelved_relink_cache_hits"
        "pgo_shelved_relink_cache_hits_floor" exact_floor;
      (* allocation counts, exact from run to run: 5 % slack *)
      row [ "dex" ] "parse_alloc_bytes_per_byte" "parse_alloc_envelope"
        (Envelope (Pad 3, 1.05));
      row [ "ir" ] "optimize_alloc_words_per_insn" "optimize_alloc_envelope"
        (Envelope (Pad 3, 1.05)) ]

(* `baseline`: measure and write every row's bound to [path]; refuses
   (returns the failures) while any correctness check fails. *)
let write_baseline path : string list =
  let section, failures = gate_measure () in
  if failures <> [] then failures
  else
    match Gate.baseline gate_rows section with
    | Error missing -> missing
    | Ok doc ->
      Obs.write_file path doc;
      Printf.printf "wrote %s\n" path;
      []

(* `gate`: measure, then hold every row against the committed baseline.
   Returns the bench section (for --metrics) and the failures (empty =
   pass). *)
let gate ~baseline_path : Json.t * string list =
  let section, failures = gate_measure () in
  let read () = In_channel.with_open_bin baseline_path In_channel.input_all in
  match
    Result.bind (try Ok (read ()) with Sys_error e -> Error e) Json.parse
  with
  | Error e -> (section, failures @ [ "baseline " ^ baseline_path ^ ": " ^ e ])
  | Ok doc ->
    let lines, broken = Gate.check gate_rows ~measured:section ~baseline:doc in
    Printf.printf "  %-46s %10s %10s %10s  verdict\n" "row" "measured"
      "committed" "limit";
    List.iter print_endline lines;
    (section, failures @ broken)
