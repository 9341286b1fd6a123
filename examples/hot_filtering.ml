(* The Figure 6 workflow: build, profile with the simpleperf substitute,
   persist the profile, and rebuild with hot-function filtering; then
   compare runtime degradation and code size with and without it.

   Run with: dune exec examples/hot_filtering.exe *)

open Calibro_core
open Calibro_workload
module Profile = Calibro_profile.Profile

let () =
  let a = Appgen.generate Apps.kuaishou in
  let apk = a.Appgen.app in
  let script = a.Appgen.app_script in
  (* 1. Building by DEX2OAT (baseline). *)
  let base = Pipeline.build ~config:Config.baseline apk in
  (* 2. Running OAT files + 3. profiling by simpleperf. *)
  let t = Appgen.run_script base.Pipeline.b_oat script in
  let profile = Profile.of_interp t in
  let path = Filename.temp_file "calibro" ".profile" in
  (match Profile.save profile path with
   | Ok () -> ()
   | Error e -> failwith e);
  Printf.printf "profile written to %s (%d samples)\n" path
    (List.length profile);
  (* 4. Selecting profiling data: the hot set. *)
  let profile = Result.get_ok (Profile.load path) in
  let hot = Profile.hot_set ~coverage:0.8 profile in
  Printf.printf "hot set: %d methods cover 80%% of %d cycles\n"
    (List.length hot) (Profile.total profile);
  (* 5. Guided rebuild. *)
  let pl = Pipeline.build ~config:(Config.cto_ltbo_pl ~k:8 ()) apk in
  let hf =
    Pipeline.build ~config:(Config.cto_ltbo_pl_hf ~k:8 ~hot_methods:hot ()) apk
  in
  let cycles b = Calibro_vm.Interp.cycles (Appgen.run_script b.Pipeline.b_oat script) in
  let cb = cycles base and cp = cycles pl and ch = cycles hf in
  Printf.printf "code size: baseline %dB, outlined %dB, hot-filtered %dB\n"
    (Pipeline.text_size base) (Pipeline.text_size pl) (Pipeline.text_size hf);
  Printf.printf
    "cycles: baseline %d, outlined %d (%+.2f%%), hot-filtered %d (%+.2f%%)\n"
    cb cp
    (100.0 *. float_of_int (cp - cb) /. float_of_int cb)
    ch
    (100.0 *. float_of_int (ch - cb) /. float_of_int cb);
  Sys.remove path
