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

let run_script oat (script : Appgen.script) =
  let t = Interp.load oat in
  List.iter
    (fun (st : Appgen.script_step) ->
      for _ = 1 to st.Appgen.sc_repeat do
        match Interp.call t st.Appgen.sc_method st.Appgen.sc_args with
        | Interp.Fault m ->
          failwith
            (Printf.sprintf "script fault in %s: %s"
               (Calibro_dex.Dex_ir.method_ref_to_string st.Appgen.sc_method)
               m)
        | _ -> ()
      done)
    script;
  t

let measure oat script =
  let t = run_script oat script in
  (Interp.cycles t, Interp.resident_code_bytes t)

let evaluate_app (profile : Appgen.profile) : app_eval =
  Printf.eprintf "[bench] evaluating %s...\n%!" profile.Appgen.p_name;
  let a = Appgen.generate profile in
  let apk = a.Appgen.app in
  let script = a.Appgen.app_script in
  let base = Pipeline.build ~config:Config.baseline apk in
  (* Figure 6 workflow: profile the baseline build, derive the hot set. *)
  let tb = run_script base.Pipeline.b_oat script in
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
  let result = Ltbo.run methods in
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
   the committed bench/digests.txt is a real miscompile. *)
let digests () =
  print_endline "== OAT text digests: evaluation apps x oracle matrix ==";
  List.iter
    (fun (p : Appgen.profile) ->
      let a = Appgen.generate p in
      let apk = a.Appgen.app in
      let base = Pipeline.build ~config:Config.baseline apk in
      let tb = run_script base.Pipeline.b_oat a.Appgen.app_script in
      let hot = Profile.hot_set (Profile.of_interp tb) in
      List.iter
        (fun (c : Config.t) ->
          let b = Pipeline.build ~config:c apk in
          Printf.printf "  %-10s %-24s %s\n%!"
            apk.Calibro_dex.Dex_ir.apk_name c.Config.name
            (Calibro_chash.Chash.to_hex
               (Calibro_chash.Chash.bytes
                  b.Pipeline.b_oat.Calibro_oat.Oat_file.text)))
        (Config.baseline :: Config.matrix ~hot_methods:hot ()))
    Apps.all

(* ---- The detection micro-benchmark (bench detect) -------------------------- *)

(* Compiled methods + candidate indices of the largest evaluation app
   (Kuaishou), from Ltbo.candidates as in Ltbo.run: detection throughput here
   is what Table 6 says must stay cheap enough to live inside dex2oat. *)
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
  Printf.printf "  ltbo_detect (end to end): %12.0f elements/s\n%!" eps

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

let incr_byte_equal r = List.for_all (fun s -> s.i_byte_equal) r.i_seeds

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

(* `bench incr`: print the comparison; false (-> exit 1 in main) if any
   warm build is not byte-identical to its cold twin. *)
let incr_bench () : bool =
  print_endline
    "== bench incr: incremental rebuild after a one-method edit (Kuaishou) ==";
  let r = incr_measure () in
  incr_report r;
  incr_byte_equal r

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

(* One gate measurement: every evaluation app built under the baseline and
   under CTO+LTBO+PlOpti(8). Text sizes are deterministic (the workload
   generator and the PlOpti partition are seeded), so they must reproduce
   exactly on any machine; build time is machine-dependent and is gated
   against a generous committed envelope instead. *)

type gate_app = { g_name : string; g_text_base : int; g_text_pl : int }

let gate_reduction g =
  (float_of_int g.g_text_base -. float_of_int g.g_text_pl)
  /. float_of_int g.g_text_base

let gate_measure () : gate_app list * float =
  let t0 = Clock.now_ns () in
  let apps =
    List.map
      (fun (p : Appgen.profile) ->
        Printf.eprintf "[gate] building %s...\n%!" p.Appgen.p_name;
        let a = Appgen.generate p in
        let apk = a.Appgen.app in
        let base = Pipeline.build ~config:Config.baseline apk in
        let pl = Pipeline.build ~config:(Config.cto_ltbo_pl ~k:8 ()) apk in
        { g_name = apk.Calibro_dex.Dex_ir.apk_name;
          g_text_base = Pipeline.text_size base;
          g_text_pl = Pipeline.text_size pl })
      Apps.all
  in
  (apps, Clock.since_s t0)

let gate_section apps total_s detect_eps incr serve fleet store pgo train =
  Json.Obj
    [ ( "apps",
        Json.Obj
          (List.map
             (fun g ->
               ( g.g_name,
                 Json.Obj
                   [ ("text_base", Json.Int g.g_text_base);
                     ("text_pl", Json.Int g.g_text_pl);
                     ("reduction_pl", Json.Float (gate_reduction g)) ] ))
             apps) );
      ("total_build_s", Json.Float total_s);
      ("detect_elements_per_s", Json.Float detect_eps);
      ( "incr",
        Json.Obj
          [ ("cold_s", Json.Float incr.i_cold_s);
            ("warm_speedup", Json.Float (incr_min_speedup incr));
            ("byte_equal", Json.Bool (incr_byte_equal incr)) ] );
      ("serve", Serve.section serve);
      ("fleet", Serve.fleet_section fleet);
      ("store", Store.section store);
      ("pgo", Pgo_bench.section pgo);
      ("train", Train_bench.section train) ]

(* The envelope committed in bench/baseline.json is a *budget*, not a
   measurement: 3x the build time observed when the baseline was written
   (and, symmetrically, a detection-throughput floor of 1/3 the observed
   rate), so that slower CI runners still pass while a genuine blow-up
   (the gate fails at 1.25x the time envelope / below 0.75x the throughput
   floor) is caught. *)
let envelope_slack = 3.0

let write_baseline path =
  let apps, total_s = gate_measure () in
  Printf.eprintf "[gate] measuring detection throughput...\n%!";
  let eps, elements = detect_eps () in
  let eps_floor = Float.round (eps /. envelope_slack) in
  Printf.eprintf "[gate] measuring incremental rebuild...\n%!";
  let incr = incr_measure () in
  if not (incr_byte_equal incr) then
    failwith "incr: warm rebuild is not byte-identical to cold";
  let incr_speedup = incr_min_speedup incr in
  let incr_floor =
    Float.round (incr_speedup /. envelope_slack *. 100.) /. 100.
  in
  Printf.eprintf "[gate] measuring served-build throughput...\n%!";
  let serve = Serve.measure () in
  if not serve.Serve.sv_byte_ok then
    failwith "serve: served OATs are not byte-identical to in-process builds";
  let serve_floor =
    Float.round (serve.Serve.sv_throughput /. envelope_slack *. 100.) /. 100.
  in
  let serve_p95_env =
    Float.round (serve.Serve.sv_p95_s *. envelope_slack *. 1000.) /. 1000.
  in
  Printf.eprintf "[gate] measuring fleet throughput (3 shards + router)...\n%!";
  let fleet = Serve.fleet_measure () in
  if not fleet.Serve.fl_byte_ok then
    failwith "fleet: served OATs are not byte-identical to in-process builds";
  if fleet.Serve.fl_failovers = 0 then
    failwith "fleet: mid-run shard drain exercised no failover";
  let fleet_floor =
    Float.round (fleet.Serve.fl_throughput /. envelope_slack *. 100.) /. 100.
  in
  let fleet_p95_env =
    Float.round (fleet.Serve.fl_p95_s *. envelope_slack *. 1000.) /. 1000.
  in
  Printf.eprintf "[gate] measuring store-wide dictionary savings...\n%!";
  let store = Store.measure () in
  if not (Store.vm_ok store) then
    failwith "store: a dict-bound app diverged from its baseline in the VM";
  if store.Store.so_saved <= 0 then
    failwith "store: the shared dictionary saves no bytes over per-app \
              outlining";
  Printf.eprintf "[gate] measuring the PGO drift/re-link loop...\n%!";
  let pgo = Pgo_bench.measure () in
  if not (Pgo_bench.ok pgo) then
    failwith "pgo: the drift loop did not re-link exactly once with \
              byte-identical, monotone served bytes";
  let pgo_stale = Pgo_bench.stale_degradation_pct pgo in
  if pgo_stale <= 0. then
    failwith "pgo: the drifted workload costs nothing on the stale OAT — \
              the bench is measuring no real drift";
  (* Half the measured penalty, not the exact value: the penalty is a
     property of the codegen, and a legitimate optimizer change may
     shrink it — but it must stay strictly positive or the bench proves
     nothing. The cache-hit floor is exact like the store bytes: the
     incremental re-link's hit count is deterministic. *)
  let pgo_stale_floor = Float.round (pgo_stale /. 2. *. 100.) /. 100. in
  Printf.eprintf
    "[gate] measuring the shelve x outline frontier and release train...\n%!";
  let train = Train_bench.measure () in
  if not (Train_bench.vm_ok train) then
    failwith "train: a shelved build diverged from its unshelved twin in the \
              VM";
  if train.Train_bench.tr_text_saved <= 0 then
    failwith "train: shelve x outline saves no text over outline alone";
  if train.Train_bench.tr_store_saved_shelved <= 0 then
    failwith "train: the shared dictionary saves no bytes over the shelved \
              warm sets";
  if not (Train_bench.ok train) then
    failwith "train: the fleet replay diverged or the shelved PGO loop broke";
  (* Sizes, cycle counts and the sequential walk are deterministic, so
     those floors are (near-)exact — a thousandth of slack only absorbs
     float formatting through the JSON round-trip. The fleet hit rate is
     not: concurrent clients race on cold versions, so its floor is half
     the measured rate, like the stale-degradation floor. *)
  let train_cycle_env =
    (Float.round (train.Train_bench.tr_cycle_ratio *. 1000.) +. 1.) /. 1000.
  in
  let train_incr_floor =
    (Float.round (train.Train_bench.tr_incr_hit_rate *. 1000.) -. 1.) /. 1000.
  in
  let train_fleet_floor =
    Float.round (train.Train_bench.tr_fleet.Train_bench.tf_hit_rate /. 2.
                 *. 1000.)
    /. 1000.
  in
  let doc =
    Json.Obj
      [ ("schema", Json.Int 1);
        ( "apps",
          Json.Obj
            (List.map
               (fun g ->
                 ( g.g_name,
                   Json.Obj
                     [ ("text_base", Json.Int g.g_text_base);
                       ("text_pl", Json.Int g.g_text_pl);
                       ("reduction_pl", Json.Float (gate_reduction g)) ] ))
               apps) );
        ( "build_time_envelope_s",
          Json.Float (Float.round (total_s *. envelope_slack *. 100.) /. 100.)
        );
        ( "detect",
          Json.Obj
            [ ("elements", Json.Int elements);
              ("elements_per_s_floor", Json.Float eps_floor) ] );
        ( "incr",
          Json.Obj [ ("warm_speedup_floor", Json.Float incr_floor) ] );
        ( "serve",
          Json.Obj
            [ ("throughput_floor_builds_per_s", Json.Float serve_floor);
              ("p95_latency_envelope_s", Json.Float serve_p95_env) ] );
        ( "fleet",
          Json.Obj
            [ ("throughput_floor_builds_per_s", Json.Float fleet_floor);
              ("p95_latency_envelope_s", Json.Float fleet_p95_env) ] );
        (* Deterministic like the per-app sizes, so the saved-byte count
           is committed exactly — any shrink at all fails the gate. *)
        ( "store",
          Json.Obj [ ("saved_bytes_floor", Json.Int store.Store.so_saved) ] );
        ( "pgo",
          Json.Obj
            [ ("stale_degradation_floor_pct", Json.Float pgo_stale_floor);
              ( "relink_degradation_envelope_pct",
                Json.Float Pgo_bench.table7_envelope_pct );
              ( "relink_cache_hits_floor",
                Json.Int pgo.Pgo_bench.pg_relink_cache_hits ) ] );
        ( "train",
          Json.Obj
            [ ("text_saved_floor", Json.Int train.Train_bench.tr_text_saved);
              ("cycle_ratio_envelope", Json.Float train_cycle_env);
              ( "store_saved_shelved_floor",
                Json.Int train.Train_bench.tr_store_saved_shelved );
              ("incr_hit_rate_floor", Json.Float train_incr_floor);
              ("fleet_hit_rate_floor", Json.Float train_fleet_floor);
              (* Half the measured count, not exact: Build requests race
                 the re-link, so how much of the cache is warm when it
                 runs varies between runs. Half still proves the shelved
                 re-link is incremental, which is the claim. *)
              ( "pgo_shelved_relink_cache_hits_floor",
                Json.Int
                  (train.Train_bench.tr_pgo.Pgo_bench.pg_relink_cache_hits
                   / 2) )
            ] )
      ]
  in
  Obs.write_file path doc;
  Printf.printf
    "wrote %s (%d apps, measured %.2fs, envelope %.2fs, detect %.0f el/s, \
     floor %.0f, incr %.1fx, floor %.2fx, serve %.1f builds/s, floor %.2f, \
     fleet %.1f builds/s, floor %.2f, %d failovers, store %d bytes saved)\n"
    path (List.length apps) total_s
    (total_s *. envelope_slack)
    eps eps_floor incr_speedup incr_floor serve.Serve.sv_throughput
    serve_floor fleet.Serve.fl_throughput fleet_floor
    fleet.Serve.fl_failovers store.Store.so_saved;
  Printf.printf
    "  pgo: stale +%.2f%% (floor %.2f%%), relink +%.2f%% (envelope %.1f%%), \
     %d relink cache hits\n"
    pgo_stale pgo_stale_floor
    (Pgo_bench.relink_degradation_pct pgo)
    Pgo_bench.table7_envelope_pct pgo.Pgo_bench.pg_relink_cache_hits;
  Printf.printf
    "  train: %d text saved (cycle ratio %.3fx, envelope %.3fx), store \
     shelved %d saved, incr hit rate %.3f (floor %.3f), fleet hit rate %.3f \
     (floor %.3f), %d shelved relink hits\n"
    train.Train_bench.tr_text_saved train.Train_bench.tr_cycle_ratio
    train_cycle_env train.Train_bench.tr_store_saved_shelved
    train.Train_bench.tr_incr_hit_rate train_incr_floor
    train.Train_bench.tr_fleet.Train_bench.tf_hit_rate train_fleet_floor
    train.Train_bench.tr_pgo.Pgo_bench.pg_relink_cache_hits

(* Reduction may not regress below the committed value by more than this
   (absolute, in reduction points). Sizes are deterministic, so any drift
   at all signals a real behavior change; the epsilon only absorbs float
   formatting. *)
let reduction_tolerance = 0.001

(* Run the gate: measure, compare against the committed baseline, print a
   verdict per app. Returns the bench section (for --metrics) and the
   failure messages (empty = pass). *)
let gate ~baseline_path : Json.t * string list =
  let apps, total_s = gate_measure () in
  Printf.eprintf "[gate] measuring detection throughput...\n%!";
  let eps, _ = detect_eps () in
  Printf.eprintf "[gate] measuring incremental rebuild...\n%!";
  let incr = incr_measure () in
  Printf.eprintf "[gate] measuring served-build throughput...\n%!";
  let serve = Serve.measure () in
  Printf.eprintf "[gate] measuring fleet throughput (3 shards + router)...\n%!";
  let fleet = Serve.fleet_measure () in
  Printf.eprintf "[gate] measuring store-wide dictionary savings...\n%!";
  let store = Store.measure () in
  Printf.eprintf "[gate] measuring the PGO drift/re-link loop...\n%!";
  let pgo = Pgo_bench.measure () in
  Printf.eprintf
    "[gate] measuring the shelve x outline frontier and release train...\n%!";
  let train = Train_bench.measure () in
  let section =
    gate_section apps total_s eps incr serve fleet store pgo train
  in
  let fail = ref [] in
  let add fmt = Printf.ksprintf (fun m -> fail := m :: !fail) fmt in
  (* Byte equality is a correctness property, not a perf budget: it fails
     the gate whatever the committed baseline says. The fleet run must
     also have exercised at least one failover (the mid-run shard drain),
     or the measurement proved nothing about failure handling. *)
  List.iter
    (fun s ->
      if not s.i_byte_equal then
        add "incr seed %d: warm rebuild is not byte-identical to cold"
          s.i_seed)
    incr.i_seeds;
  if not serve.Serve.sv_byte_ok then
    add "serve: served OATs are not byte-identical to in-process builds";
  if not fleet.Serve.fl_byte_ok then
    add "fleet: served OATs are not byte-identical to in-process builds \
         (under a mid-run shard drain)";
  if fleet.Serve.fl_failovers = 0 then
    add "fleet: mid-run shard drain exercised no failover";
  List.iter
    (fun (a : Store.app_row) ->
      if not a.Store.sa_vm_ok then
        add "store: dict-bound %s diverged from its baseline in the VM"
          a.Store.sa_name)
    store.Store.so_apps;
  if store.Store.so_saved <= 0 then
    add "store: the shared dictionary saves no bytes over per-app outlining \
         (%d)"
      store.Store.so_saved;
  (* The PGO loop's contract is correctness-shaped too: exactly one
     re-link, the refreshed OAT byte-identical to the in-process drifted
     build, and the served bytes flipping exactly once. *)
  if pgo.Pgo_bench.pg_relinks <> 1 then
    add "pgo: drift scheduled %d re-links (want exactly 1)"
      pgo.Pgo_bench.pg_relinks;
  if not pgo.Pgo_bench.pg_byte_ok then
    add "pgo: the re-linked OAT is not byte-identical to the in-process \
         drifted build";
  if not pgo.Pgo_bench.pg_flip_monotone then
    add "pgo: the served bytes did not flip exactly once (old -> new)";
  if pgo.Pgo_bench.pg_errors > 0 then
    add "pgo: %d request errors during the drift run" pgo.Pgo_bench.pg_errors;
  (* The train bench's correctness half is unconditional too: shelving
     may only trade cycles for bytes, never semantics; the fleet must
     serve the exact in-process bytes; and the shelve-enabled drift loop
     must re-link exactly once, byte-faithfully, re-deriving the plan
     from the drifted profile. *)
  List.iter
    (fun (a : Train_bench.app_row) ->
      if not (a.Train_bench.ta_vm_ok && a.Train_bench.ta_policy_ok) then
        add "train: shelved %s diverged from its unshelved build in the VM"
          a.Train_bench.ta_name)
    train.Train_bench.tr_apps;
  if not train.Train_bench.tr_fleet.Train_bench.tf_byte_ok then
    add "train: the fleet served bytes differing from in-process shelved \
         builds";
  if train.Train_bench.tr_fleet.Train_bench.tf_hit_rate <= 0.0 then
    add "train: the release-train replay never hit the fleet cache";
  if train.Train_bench.tr_pgo.Pgo_bench.pg_relinks <> 1 then
    add "train: the shelve-enabled drift loop scheduled %d re-links (want \
         exactly 1)"
      train.Train_bench.tr_pgo.Pgo_bench.pg_relinks;
  if not train.Train_bench.tr_pgo.Pgo_bench.pg_byte_ok then
    add "train: the shelved re-link is not byte-identical to the in-process \
         drifted shelved build";
  if not train.Train_bench.tr_pgo.Pgo_bench.pg_flip_monotone then
    add "train: the shelved re-link's served bytes did not flip exactly once";
  (match
     let contents =
       let ic = open_in baseline_path in
       Fun.protect
         ~finally:(fun () -> close_in ic)
         (fun () -> really_input_string ic (in_channel_length ic))
     in
     Json.parse contents
   with
   | exception Sys_error e -> add "cannot read baseline: %s" e
   | Error e -> add "baseline %s does not parse: %s" baseline_path e
   | Ok doc ->
     let bapps =
       match Json.member "apps" doc with
       | Some (Json.Obj fields) -> fields
       | _ -> add "baseline has no \"apps\" object"; []
     in
     List.iter
       (fun (name, bapp) ->
         match List.find_opt (fun g -> g.g_name = name) apps with
         | None -> add "app %s in baseline but not measured" name
         | Some g ->
           let bred =
             Option.bind (Json.member "reduction_pl" bapp) Json.get_float
             |> Option.value ~default:0.0
           in
           let red = gate_reduction g in
           let verdict =
             if red < bred -. reduction_tolerance then begin
               add
                 "%s: text-size reduction regressed %.3f%% -> %.3f%%"
                 name (100. *. bred) (100. *. red);
               "FAIL"
             end
             else "ok"
           in
           Printf.printf
             "  %-9s text %7d -> %7d  reduction %6.2f%% (baseline %6.2f%%)  %s\n"
             name g.g_text_base g.g_text_pl (100. *. red) (100. *. bred)
             verdict)
       bapps;
     (match
        Option.bind (Json.member "build_time_envelope_s" doc) Json.get_float
      with
      | None -> add "baseline has no \"build_time_envelope_s\""
      | Some env ->
        let limit = env *. 1.25 in
        Printf.printf "  total build %.2fs (envelope %.2fs, limit %.2fs)  %s\n"
          total_s env limit
          (if total_s > limit then "FAIL" else "ok");
        if total_s > limit then
          add "total build time %.2fs exceeds envelope %.2fs by >25%%"
            total_s env);
     (match
        Option.bind
          (Option.bind (Json.member "detect" doc)
             (Json.member "elements_per_s_floor"))
          Json.get_float
      with
      | None -> add "baseline has no \"detect\".\"elements_per_s_floor\""
      | Some floor ->
        let limit = floor *. 0.75 in
        Printf.printf
          "  detect throughput %.0f elements/s (floor %.0f, limit %.0f)  %s\n"
          eps floor limit
          (if eps < limit then "FAIL" else "ok");
        if eps < limit then
          add
            "detection throughput %.0f elements/s fell >25%% below floor %.0f"
            eps floor);
     (match
        Option.bind
          (Option.bind (Json.member "incr" doc)
             (Json.member "warm_speedup_floor"))
          Json.get_float
      with
      | None -> add "baseline has no \"incr\".\"warm_speedup_floor\""
      | Some floor ->
        let speedup = incr_min_speedup incr in
        let limit = floor *. 0.75 in
        Printf.printf
          "  incr warm speedup %.1fx, bytes %s (floor %.2fx, limit %.2fx)  %s\n"
          speedup
          (if incr_byte_equal incr then "identical" else "DIFFER")
          floor limit
          (if speedup < limit || not (incr_byte_equal incr) then "FAIL"
           else "ok");
        if speedup < limit then
          add "incremental warm speedup %.1fx fell >25%% below floor %.2fx"
            speedup floor);
     (match
        Option.bind
          (Option.bind (Json.member "serve" doc)
             (Json.member "throughput_floor_builds_per_s"))
          Json.get_float
      with
      | None -> add "baseline has no \"serve\".\"throughput_floor_builds_per_s\""
      | Some floor ->
        let limit = floor *. 0.75 in
        Printf.printf
          "  serve throughput %.1f builds/s, bytes %s (floor %.2f, limit \
           %.2f)  %s\n"
          serve.Serve.sv_throughput
          (if serve.Serve.sv_byte_ok then "identical" else "DIFFER")
          floor limit
          (if serve.Serve.sv_throughput < limit
              || not serve.Serve.sv_byte_ok
           then "FAIL"
           else "ok");
        if serve.Serve.sv_throughput < limit then
          add "served-build throughput %.1f builds/s fell >25%% below floor \
               %.2f"
            serve.Serve.sv_throughput floor);
     (match
        Option.bind
          (Option.bind (Json.member "serve" doc)
             (Json.member "p95_latency_envelope_s"))
          Json.get_float
      with
      | None -> add "baseline has no \"serve\".\"p95_latency_envelope_s\""
      | Some env ->
        let limit = env *. 1.25 in
        Printf.printf "  serve p95 latency %.3fs (envelope %.3fs, limit %.3fs)  %s\n"
          serve.Serve.sv_p95_s env limit
          (if serve.Serve.sv_p95_s > limit then "FAIL" else "ok");
        if serve.Serve.sv_p95_s > limit then
          add "served-build p95 latency %.3fs exceeds envelope %.3fs by >25%%"
            serve.Serve.sv_p95_s env);
     (* GC pressure on the serving path, per successful build. Not gated
        (allocation totals shift with compiler versions), but printed and
        exported so the arena work's effect is visible in every CI log. *)
     Printf.printf "  serve gc alloc %.0f bytes/served build (informational)\n"
       serve.Serve.sv_alloc_per_build;
     (* The fleet scaling check: 3 shards behind the router (one drained
        mid-run) must clear half of the *same-run* single-daemon
        throughput, or sharding is not buying throughput. Anchoring on
        this run's serve measurement rather than the committed floor
        keeps the threshold meaningful as floors are raised: the
        original form (2x floor at 0.75 slack, with floor = measured/3)
        encoded exactly "half the serve measurement from when the
        baseline was written" — this is the same bar, measured on the
        same machine under the same load, so no cross-machine slack is
        layered on top. *)
     (let scale_limit = serve.Serve.sv_throughput /. 2.0 in
      Printf.printf
        "  fleet throughput %.1f builds/s vs half of same-run serve %.2f \
         (limit %.2f)  %s\n"
        fleet.Serve.fl_throughput serve.Serve.sv_throughput scale_limit
        (if fleet.Serve.fl_throughput < scale_limit then "FAIL" else "ok");
      if fleet.Serve.fl_throughput < scale_limit then
        add
          "fleet throughput %.1f builds/s fell below half the same-run \
           single-daemon throughput %.2f"
          fleet.Serve.fl_throughput serve.Serve.sv_throughput);
     (match
        Option.bind
          (Option.bind (Json.member "fleet" doc)
             (Json.member "throughput_floor_builds_per_s"))
          Json.get_float
      with
      | None -> add "baseline has no \"fleet\".\"throughput_floor_builds_per_s\""
      | Some floor ->
        let limit = floor *. 0.75 in
        Printf.printf
          "  fleet throughput %.1f builds/s, bytes %s, failovers %d (floor \
           %.2f, limit %.2f)  %s\n"
          fleet.Serve.fl_throughput
          (if fleet.Serve.fl_byte_ok then "identical" else "DIFFER")
          fleet.Serve.fl_failovers floor limit
          (if fleet.Serve.fl_throughput < limit
              || not (Serve.fleet_ok fleet)
           then "FAIL"
           else "ok");
        if fleet.Serve.fl_throughput < limit then
          add "fleet throughput %.1f builds/s fell >25%% below floor %.2f"
            fleet.Serve.fl_throughput floor);
     (match
        Option.bind
          (Option.bind (Json.member "fleet" doc)
             (Json.member "p95_latency_envelope_s"))
          Json.get_float
      with
      | None -> add "baseline has no \"fleet\".\"p95_latency_envelope_s\""
      | Some env ->
        let limit = env *. 1.25 in
        Printf.printf "  fleet p95 latency %.3fs (envelope %.3fs, limit %.3fs)  %s\n"
          fleet.Serve.fl_p95_s env limit
          (if fleet.Serve.fl_p95_s > limit then "FAIL" else "ok");
        if fleet.Serve.fl_p95_s > limit then
          add "fleet p95 latency %.3fs exceeds envelope %.3fs by >25%%"
            fleet.Serve.fl_p95_s env);
     (* The store floor is exact, like the per-app reductions: shared-dict
        savings are deterministic byte counts, so any drop below the
        committed value is a real sharing regression, not machine noise. *)
     (match
        Option.bind
          (Option.bind (Json.member "store" doc)
             (Json.member "saved_bytes_floor"))
          Json.get_int
      with
      | None -> add "baseline has no \"store\".\"saved_bytes_floor\""
      | Some floor ->
        Printf.printf
          "  store saved %d bytes (%d bodies, %d dict bytes), vm %s (floor \
           %d)  %s\n"
          store.Store.so_saved store.Store.so_bodies store.Store.so_dict_bytes
          (if Store.vm_ok store then "faithful" else "DIVERGES")
          floor
          (if store.Store.so_saved < floor || not (Store.ok store) then "FAIL"
           else "ok");
        if store.Store.so_saved < floor then
          add "store saved bytes regressed %d -> %d" floor
            store.Store.so_saved);
     (* The PGO loop: the drifted workload must keep paying a real cycle
        penalty on the stale OAT (or the bench measures nothing), and
        the re-linked OAT must hold the drifted script inside the
        committed Table 7 envelope. Cycle counts are exact, so the
        cache-hit floor is exact like the store bytes. *)
     (let stale = Pgo_bench.stale_degradation_pct pgo
      and relinked = Pgo_bench.relink_degradation_pct pgo in
      (match
         Option.bind
           (Option.bind (Json.member "pgo" doc)
              (Json.member "stale_degradation_floor_pct"))
           Json.get_float
       with
       | None -> add "baseline has no \"pgo\".\"stale_degradation_floor_pct\""
       | Some floor ->
         Printf.printf
           "  pgo stale degradation +%.2f%% (floor %.2f%%)  %s\n" stale floor
           (if stale < floor then "FAIL" else "ok");
         if stale < floor then
           add
             "pgo: stale degradation +%.2f%% fell below floor %.2f%% — the \
              drift workload no longer hurts"
             stale floor);
      (match
         Option.bind
           (Option.bind (Json.member "pgo" doc)
              (Json.member "relink_degradation_envelope_pct"))
           Json.get_float
       with
       | None ->
         add "baseline has no \"pgo\".\"relink_degradation_envelope_pct\""
       | Some env ->
         Printf.printf
           "  pgo re-linked degradation +%.2f%%, bytes %s (envelope %.1f%%)  \
            %s\n"
           relinked
           (if pgo.Pgo_bench.pg_byte_ok then "identical" else "DIFFER")
           env
           (if relinked > env || not (Pgo_bench.ok pgo) then "FAIL" else "ok");
         if relinked > env then
           add
             "pgo: re-linked degradation +%.2f%% exceeds the Table 7 \
              envelope %.1f%%"
             relinked env);
      match
        Option.bind
          (Option.bind (Json.member "pgo" doc)
             (Json.member "relink_cache_hits_floor"))
          Json.get_int
      with
      | None -> add "baseline has no \"pgo\".\"relink_cache_hits_floor\""
      | Some floor ->
        Printf.printf "  pgo relink cache hits %d (floor %d)  %s\n"
          pgo.Pgo_bench.pg_relink_cache_hits floor
          (if pgo.Pgo_bench.pg_relink_cache_hits < floor then "FAIL"
           else "ok");
        if pgo.Pgo_bench.pg_relink_cache_hits < floor then
          add
            "pgo: relink cache hits regressed %d -> %d — the re-link is no \
             longer incremental"
            floor pgo.Pgo_bench.pg_relink_cache_hits);
     (* The train section: the shelve x outline frontier and the
        release-train replay. Text saved, the cycle ratio, the shelved
        store savings and the sequential-walk hit rate are deterministic
        (exact floors/envelope); the fleet hit rate races, so its floor
        carries 2x slack from when the baseline was written. *)
     match Json.member "train" doc with
     | None -> add "baseline has no \"train\" section"
     | Some tdoc ->
       let geti k = Option.bind (Json.member k tdoc) Json.get_int in
       let getf k = Option.bind (Json.member k tdoc) Json.get_float in
       (match geti "text_saved_floor" with
        | None -> add "baseline has no \"train\".\"text_saved_floor\""
        | Some floor ->
          Printf.printf "  train shelve x outline saved %d bytes (floor %d)  \
                         %s\n"
            train.Train_bench.tr_text_saved floor
            (if train.Train_bench.tr_text_saved < floor then "FAIL" else "ok");
          if train.Train_bench.tr_text_saved < floor then
            add "train: shelve x outline text savings regressed %d -> %d"
              floor train.Train_bench.tr_text_saved);
       (match getf "cycle_ratio_envelope" with
        | None -> add "baseline has no \"train\".\"cycle_ratio_envelope\""
        | Some env ->
          Printf.printf
            "  train cycle ratio %.3fx (envelope %.3fx)  %s\n"
            train.Train_bench.tr_cycle_ratio env
            (if train.Train_bench.tr_cycle_ratio > env then "FAIL" else "ok");
          if train.Train_bench.tr_cycle_ratio > env then
            add
              "train: shelved workload cycles %.3fx exceed the committed \
               envelope %.3fx"
              train.Train_bench.tr_cycle_ratio env);
       (match geti "store_saved_shelved_floor" with
        | None ->
          add "baseline has no \"train\".\"store_saved_shelved_floor\""
        | Some floor ->
          Printf.printf
            "  train store (shelved warm sets) saved %d bytes (floor %d)  %s\n"
            train.Train_bench.tr_store_saved_shelved floor
            (if train.Train_bench.tr_store_saved_shelved < floor then "FAIL"
             else "ok");
          if train.Train_bench.tr_store_saved_shelved < floor then
            add "train: shelved store savings regressed %d -> %d" floor
              train.Train_bench.tr_store_saved_shelved);
       (match getf "incr_hit_rate_floor" with
        | None -> add "baseline has no \"train\".\"incr_hit_rate_floor\""
        | Some floor ->
          Printf.printf
            "  train incremental walk hit rate %.3f (floor %.3f)  %s\n"
            train.Train_bench.tr_incr_hit_rate floor
            (if train.Train_bench.tr_incr_hit_rate < floor then "FAIL"
             else "ok");
          if train.Train_bench.tr_incr_hit_rate < floor then
            add
              "train: sequential train walk hit rate regressed %.3f -> %.3f \
               — version deltas are no longer incremental"
              floor train.Train_bench.tr_incr_hit_rate);
       (match getf "fleet_hit_rate_floor" with
        | None -> add "baseline has no \"train\".\"fleet_hit_rate_floor\""
        | Some floor ->
          let rate = train.Train_bench.tr_fleet.Train_bench.tf_hit_rate in
          Printf.printf "  train fleet hit rate %.3f (floor %.3f)  %s\n" rate
            floor
            (if rate < floor then "FAIL" else "ok");
          if rate < floor then
            add "train: fleet cache hit rate %.3f fell below floor %.3f" rate
              floor);
       match geti "pgo_shelved_relink_cache_hits_floor" with
       | None ->
         add "baseline has no \
              \"train\".\"pgo_shelved_relink_cache_hits_floor\""
       | Some floor ->
         let hits = train.Train_bench.tr_pgo.Pgo_bench.pg_relink_cache_hits in
         Printf.printf "  train shelved relink cache hits %d (floor %d)  %s\n"
           hits floor
           (if hits < floor then "FAIL" else "ok");
         if hits < floor then
           add
             "train: shelved relink cache hits regressed %d -> %d — the \
              shelved re-link is no longer incremental"
             floor hits);
  (section, List.rev !fail)
