let () =
  (* CI snapshots the observability counters the suite accumulated (cache
     hit/miss/corrupt accounting, fault-injection counts) as an artifact.
     The obs suite resets the registry, so it runs first: every other
     suite's counters survive into the snapshot. *)
  (match Sys.getenv_opt "CALIBRO_METRICS_OUT" with
   | Some f when String.trim f <> "" ->
     at_exit (fun () ->
         Calibro_obs.Obs.write_file f (Calibro_obs.Obs.metrics_json ()))
   | _ -> ());
  Alcotest.run "calibro"
    [ ("obs", Test_obs.suite);
      ("aarch64", Test_aarch64.suite);
      ("suffix_tree", Test_suffix_tree.suite);
      ("dex", Test_dex.suite);
      ("hgraph", Test_hgraph.suite);
      ("vm", Test_vm.suite);
      ("ltbo", Test_ltbo.suite);
      ("core", Test_core.suite);
      ("oat", Test_oat.suite);
      ("workload", Test_workload.suite);
      ("edge", Test_edge.suite);
      ("check", Test_check.suite);
      ("cache", Test_cache.suite);
      ("dict", Test_dict.suite);
      ("chash", Test_chash.suite);
      ("shelve", Test_shelve.suite);
      ("server", Test_server.suite);
      ("pgo", Test_pgo.suite);
      ("gate", Test_gate.suite) ]
