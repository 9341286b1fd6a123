(* Bechamel micro-benchmarks: one Test.make per table, covering the hot
   kernel behind each experiment. Run with `bench/main.exe bechamel`. *)

open Bechamel
open Toolkit
open Calibro_core
open Calibro_workload
open Calibro_suffix_tree

let demo_app = lazy (Appgen.generate Apps.demo)

let demo_baseline =
  lazy
    (let a = Lazy.force demo_app in
     Pipeline.build ~config:Config.baseline a.Appgen.app)

let demo_seq =
  lazy (Redundancy.sequence_of_oat (Lazy.force demo_baseline).Pipeline.b_oat)

(* Table 1: suffix-tree construction (Ukkonen) over the demo app's code. *)
let test_tree_build =
  Test.make ~name:"table1/suffix_tree_build"
    (Staged.stage (fun () ->
         let seq = Lazy.force demo_seq in
         ignore (Suffix_tree.build seq)))

(* Figure 3: repeat enumeration. *)
let test_repeats =
  let tree = lazy (Suffix_tree.build (Lazy.force demo_seq)) in
  Test.make ~name:"fig3/repeat_enumeration"
    (Staged.stage (fun () ->
         ignore
           (Suffix_tree.fold_repeats ~min_length:2 ~max_length:64
              (Lazy.force tree) ~init:[] ~f:(fun acc r -> r :: acc))))

(* Table 2: PC-relative patching of a single word. *)
let test_patch =
  let word =
    Calibro_aarch64.Encode.encode
      (Calibro_aarch64.Isa.B_cond { cond = Calibro_aarch64.Isa.NE; disp = 0x100 })
  in
  Test.make ~name:"table2/patch_word"
    (Staged.stage (fun () ->
         ignore (Calibro_aarch64.Patch.patch_word word ~disp:0x80)))

(* Table 4: full LTBO over the demo app's compiled methods. *)
let test_ltbo =
  let compiled =
    lazy
      (let a = Lazy.force demo_app in
       let methods = Calibro_dex.Dex_ir.methods_of_apk a.Appgen.app in
       let slots = Hashtbl.create 64 in
       List.iteri
         (fun i (m : Calibro_dex.Dex_ir.meth) -> Hashtbl.replace slots m.name i)
         methods;
       List.map
         (fun m ->
           Calibro_codegen.Codegen.compile
             ~slot_of_method:(Hashtbl.find slots)
             (Calibro_hgraph.Hgraph.of_method m))
         methods)
  in
  Test.make ~name:"table4/ltbo_run"
    (Staged.stage (fun () ->
         ignore (Parallel.run ~k:1 ~rounds:1 (Lazy.force compiled))))

(* Table 5/7: VM execution of one entry method. *)
let test_vm =
  let setup =
    lazy
      (let a = Lazy.force demo_app in
       let b = Lazy.force demo_baseline in
       let entry = List.hd a.Appgen.app_script in
       (b.Pipeline.b_oat, entry))
  in
  Test.make ~name:"table5_7/vm_entry_call"
    (Staged.stage (fun () ->
         let oat, (st : Appgen.script_step) = Lazy.force setup in
         let t = Calibro_vm.Interp.load oat in
         ignore (Calibro_vm.Interp.call t st.Appgen.sc_method st.Appgen.sc_args)))

(* Table 6: dex2oat codegen of the demo app (the baseline build). *)
let test_build =
  Test.make ~name:"table6/dex2oat_baseline"
    (Staged.stage (fun () ->
         let a = Lazy.force demo_app in
         ignore (Pipeline.build ~config:Config.baseline a.Appgen.app)))

let benchmark () =
  let tests =
    [ test_tree_build; test_repeats; test_patch; test_ltbo; test_vm;
      test_build ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 200) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            Printf.printf "  %-32s %12.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-32s (no estimate)\n%!" name)
        results)
    tests
