(* The incremental-build test battery: byte-equivalence of warm builds
   against cold builds across the oracle matrix, cache counter accounting,
   the on-disk tier (roundtrip, corruption, eviction), the method-entry
   codec and the mutation workload that drives all of it. *)

open Calibro_core
open Calibro_workload
module Cache = Calibro_cache.Cache
module Obs = Calibro_obs.Obs
module Dex_ir = Calibro_dex.Dex_ir

let demo () = (Appgen.generate Apps.demo).Appgen.app

let text_digest (b : Pipeline.build) =
  Digest.to_hex (Digest.bytes b.Pipeline.b_oat.Calibro_oat.Oat_file.text)

let counter = Obs.Counter.value
let pl8 = Config.cto_ltbo_pl ~k:8 ()

(* Hot set of the demo app under its bundled script, as the oracle derives
   it — enables the HfOpti row of the matrix. *)
let demo_hot (a : Appgen.app) =
  let b = Pipeline.build ~cache:None ~config:Config.baseline a.Appgen.app in
  Calibro_profile.Profile.hot_set
    (Calibro_profile.Profile.of_interp
       (Appgen.run_script b.Pipeline.b_oat a.Appgen.app_script))

(* Fresh temp directory for the disk tier, removed afterwards. *)
let tmp_counter = ref 0

let with_tmpdir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "calibro-cache-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let equivalence_tests =
  [ Alcotest.test_case "warm rebuild is byte-identical across the matrix"
      `Quick (fun () ->
        (* Every oracle-matrix configuration x three mutation seeds: prime
           a fresh cache with the unedited app, build the mutant warm, and
           demand the exact bytes a cold build of the mutant produces. A
           cache that changes one bit anywhere in the OAT text under any
           configuration fails here. *)
        let a = Appgen.generate Apps.demo in
        let apk = a.Appgen.app in
        let hot = demo_hot a in
        List.iter
          (fun (config : Config.t) ->
            List.iter
              (fun seed ->
                let mutant, ops = Mutate.mutate ~ops:2 ~seed apk in
                let cold = Pipeline.build ~cache:None ~config mutant in
                let cache = Cache.create () in
                ignore (Pipeline.build ~cache:(Some cache) ~config apk);
                let warm = Pipeline.build ~cache:(Some cache) ~config mutant in
                Alcotest.(check string)
                  (Printf.sprintf "%s seed %d (%s)" config.Config.name seed
                     (String.concat ", " (List.map Mutate.op_to_string ops)))
                  (text_digest cold) (text_digest warm))
              [ 1; 2; 3 ])
          (Config.baseline :: Config.matrix ~hot_methods:hot ()));
    Alcotest.test_case "second build hits the method cache entirely" `Quick
      (fun () ->
        let apk = demo () in
        let cache = Cache.create () in
        let n = List.length (Dex_ir.methods_of_apk apk) in
        let h0 = counter "cache.method.hits" in
        let m0 = counter "cache.method.misses" in
        ignore (Pipeline.build ~cache:(Some cache) ~config:pl8 apk);
        let m1 = counter "cache.method.misses" in
        Alcotest.(check int) "first build misses every method" n (m1 - m0);
        Alcotest.(check int) "first build hits nothing" h0
          (counter "cache.method.hits");
        ignore (Pipeline.build ~cache:(Some cache) ~config:pl8 apk);
        Alcotest.(check int) "second build misses nothing" m1
          (counter "cache.method.misses");
        Alcotest.(check int) "second build hits every method" n
          (counter "cache.method.hits" - h0));
    Alcotest.test_case "a one-method edit recompiles exactly one method"
      `Quick (fun () ->
        let apk = demo () in
        let cache = Cache.create () in
        ignore (Pipeline.build ~cache:(Some cache) ~config:pl8 apk);
        let apk', edited = Mutate.edit_one ~seed:1 apk in
        let m0 = counter "cache.method.misses" in
        ignore (Pipeline.build ~cache:(Some cache) ~config:pl8 apk');
        Alcotest.(check int)
          (Printf.sprintf "only %s recompiled"
             (Dex_ir.method_ref_to_string edited))
          1
          (counter "cache.method.misses" - m0));
    Alcotest.test_case "detection groups are memoized" `Quick (fun () ->
        let apk = demo () in
        let cache = Cache.create () in
        let h0 = counter "cache.detect.hits" in
        let m0 = counter "cache.detect.misses" in
        ignore (Pipeline.build ~cache:(Some cache) ~config:pl8 apk);
        let m1 = counter "cache.detect.misses" in
        Alcotest.(check bool) "first build misses its groups" true
          (m1 - m0 > 0);
        ignore (Pipeline.build ~cache:(Some cache) ~config:pl8 apk);
        Alcotest.(check int) "second build misses no group" m1
          (counter "cache.detect.misses");
        Alcotest.(check int) "second build hits every group" (m1 - m0)
          (counter "cache.detect.hits" - h0)) ]

let disk_tests =
  [ Alcotest.test_case "disk tier survives a fresh cache instance" `Quick
      (fun () ->
        with_tmpdir (fun dir ->
            let apk = demo () in
            let cold = Pipeline.build ~cache:None ~config:pl8 apk in
            let c1 = Cache.create ~dir () in
            ignore (Pipeline.build ~cache:(Some c1) ~config:pl8 apk);
            Alcotest.(check bool) "entries written to disk" true
              (Cache.entry_files c1 <> []);
            (* a fresh instance on the same dir models a new dex2oat
               process: the memory tier is empty, everything must come
               back through the disk tier *)
            let c2 = Cache.create ~dir () in
            let d0 = counter "cache.method.disk_hits" in
            let m0 = counter "cache.method.misses" in
            let warm = Pipeline.build ~cache:(Some c2) ~config:pl8 apk in
            Alcotest.(check bool) "methods served from disk" true
              (counter "cache.method.disk_hits" - d0 > 0);
            Alcotest.(check int) "nothing recompiled" m0
              (counter "cache.method.misses");
            Alcotest.(check string) "bytes identical" (text_digest cold)
              (text_digest warm);
            (* regression: the serialized container must also match — the
               method table is marshalled with [No_sharing] because cache-
               decoded entries share sub-values differently than freshly
               compiled ones, which used to change the payload bytes *)
            Alcotest.(check string) "serialized OAT identical"
              (Digest.to_hex
                 (Digest.bytes
                    (Calibro_oat.Oat_file.to_bytes cold.Pipeline.b_oat)))
              (Digest.to_hex
                 (Digest.bytes
                    (Calibro_oat.Oat_file.to_bytes warm.Pipeline.b_oat)))));
    Alcotest.test_case "corrupt disk entries are misses, never wrong code"
      `Quick (fun () ->
        with_tmpdir (fun dir ->
            let apk = demo () in
            let cold = Pipeline.build ~cache:None ~config:pl8 apk in
            let c1 = Cache.create ~dir () in
            ignore (Pipeline.build ~cache:(Some c1) ~config:pl8 apk);
            let files = Cache.entry_files c1 in
            Alcotest.(check bool) "at least two entries to damage" true
              (List.length files >= 2);
            (* mid-write crash and silent media corruption *)
            Calibro_check.Fault.Cache.truncate (List.nth files 0);
            Calibro_check.Fault.Cache.bitflip (List.nth files 1);
            let c2 = Cache.create ~dir () in
            let corrupt ns = counter ("cache." ^ ns ^ ".disk_corrupt") in
            let c0 = corrupt "method" + corrupt "detect" in
            let warm = Pipeline.build ~cache:(Some c2) ~config:pl8 apk in
            Alcotest.(check bool) "both damaged entries detected" true
              (corrupt "method" + corrupt "detect" - c0 >= 2);
            Alcotest.(check string) "bytes identical despite corruption"
              (text_digest cold) (text_digest warm)));
    Alcotest.test_case "FIFO eviction caps the memory tiers" `Quick (fun () ->
        let apk = demo () in
        let cache = Cache.create ~max_entries:4 () in
        let e0 = counter "cache.method.evictions" in
        let b1 = Pipeline.build ~cache:(Some cache) ~config:pl8 apk in
        Alcotest.(check bool) "evictions happened" true
          (counter "cache.method.evictions" - e0 > 0);
        Alcotest.(check bool) "both tiers stay within the cap" true
          (Cache.mem_entries cache <= 8);
        (* a cache that evicts everything is still a correct cache *)
        let b2 = Pipeline.build ~cache:(Some cache) ~config:pl8 apk in
        Alcotest.(check string) "bytes identical under thrashing"
          (text_digest b1) (text_digest b2));
    Alcotest.test_case "stale tmp files are swept on store open" `Quick
      (fun () ->
        with_tmpdir (fun dir ->
            let apk = demo () in
            let c1 = Cache.create ~dir () in
            ignore (Pipeline.build ~cache:(Some c1) ~config:pl8 apk);
            (* The residue of a writer killed between open_out_bin and
               rename: an orphan <entry>.json.tmp.<pid>.<domain> nothing
               will ever read. *)
            let entry = List.hd (Cache.entry_files c1) in
            let stale = entry ^ ".tmp.999999.0" in
            let oc = open_out_bin stale in
            output_string oc "half a write";
            close_out oc;
            let swept ns = counter ("cache." ^ ns ^ ".tmp_swept") in
            let s0 = swept "method" + swept "detect" in
            ignore (Cache.create ~dir ());
            Alcotest.(check bool) "stale tmp removed" false
              (Sys.file_exists stale);
            Alcotest.(check bool) "live entry untouched" true
              (Sys.file_exists entry);
            Alcotest.(check int) "sweep counted" 1
              (swept "method" + swept "detect" - s0)));
    Alcotest.test_case "a failed disk store leaves no tmp debris" `Quick
      (fun () ->
        with_tmpdir (fun dir ->
            let module Json = Calibro_obs.Json in
            let c = Cache.create ~dir () in
            Cache.add_json c ~ns:"detect" "k1" (Json.Str "v1");
            let path = List.hd (Cache.entry_files c) in
            (* Make the atomic rename fail: replace the destination with
               a directory. The write must degrade to memory-only AND
               unlink its own tmp file — pre-fix it leaked one per
               failure. *)
            Sys.remove path;
            Unix.mkdir path 0o755;
            let e0 = counter "cache.detect.disk_write_errors" in
            Cache.add_json c ~ns:"detect" "k1" (Json.Str "v2");
            Alcotest.(check int) "write error counted" 1
              (counter "cache.detect.disk_write_errors" - e0);
            let ns_dir = Filename.dirname path in
            let debris =
              Sys.readdir ns_dir |> Array.to_list
              |> List.filter (fun f ->
                     let rec has i =
                       i + 5 <= String.length f
                       && (String.sub f i 5 = ".tmp." || has (i + 1))
                     in
                     has 0)
            in
            Alcotest.(check (list string)) "no tmp debris" [] debris;
            (match Cache.find_json c ~ns:"detect" "k1" with
            | Some (Json.Str "v2") -> ()
            | _ -> Alcotest.fail "memory tier lost the entry");
            (* leave the tree removable for with_tmpdir *)
            Unix.rmdir path)) ]

let codec_tests =
  [ Alcotest.test_case "method-entry codec roundtrips every demo method"
      `Quick (fun () ->
        let apk = demo () in
        let methods = Dex_ir.methods_of_apk apk in
        let slots = Hashtbl.create 16 in
        List.iteri
          (fun i (m : Dex_ir.meth) -> Hashtbl.replace slots m.name i)
          methods;
        List.iter
          (fun (m : Dex_ir.meth) ->
            let g = Calibro_hgraph.Hgraph.of_method m in
            ignore (Calibro_hgraph.Passes.optimize g);
            let cm =
              Calibro_codegen.Codegen.compile
                ~config:{ Calibro_codegen.Codegen.cto = true }
                ~slot_of_method:(Hashtbl.find slots) g
            in
            let entry =
              { Cache.ce_method = cm;
                ce_token_digest = Seq_map.method_digest cm }
            in
            match
              Cache.method_entry_of_json (Cache.method_entry_to_json entry)
            with
            | Error e ->
              Alcotest.failf "decode %s: %s"
                (Dex_ir.method_ref_to_string m.name)
                e
            | Ok entry' ->
              Alcotest.(check bool)
                (Dex_ir.method_ref_to_string m.name)
                true (entry = entry'))
          methods);
    Alcotest.test_case "json tier rejects malformed namespaces" `Quick
      (fun () ->
        let cache = Cache.create () in
        List.iter
          (fun ns ->
            match Cache.add_json cache ~ns "k" (Calibro_obs.Json.Int 1) with
            | exception Invalid_argument _ -> ()
            | () -> Alcotest.failf "namespace %S accepted" ns)
          [ "method"; "a/b"; "a.b"; "" ]) ]

let mutate_tests =
  [ Alcotest.test_case "mutations are deterministic in the seed" `Quick
      (fun () ->
        let apk = demo () in
        let a1, ops1 = Mutate.mutate ~ops:3 ~seed:11 apk in
        let a2, ops2 = Mutate.mutate ~ops:3 ~seed:11 apk in
        Alcotest.(check (list string))
          "same ops"
          (List.map Mutate.op_to_string ops1)
          (List.map Mutate.op_to_string ops2);
        Alcotest.(check string) "same bytes"
          (text_digest (Pipeline.build ~cache:None ~config:Config.baseline a1))
          (text_digest (Pipeline.build ~cache:None ~config:Config.baseline a2)));
    Alcotest.test_case "mutants pass the full pipeline" `Quick (fun () ->
        let apk = demo () in
        List.iter
          (fun seed ->
            let mutant, ops = Mutate.mutate ~ops:4 ~seed apk in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d applied ops" seed)
              true (ops <> []);
            (* Dex_check runs inside build; a mutant with a dangling
               reference or bad register count dies here *)
            ignore (Pipeline.build ~cache:None ~config:pl8 mutant))
          [ 1; 2; 3; 4; 5 ]);
    Alcotest.test_case "edit_one flips bytes in exactly one method" `Quick
      (fun () ->
        let apk = demo () in
        let apk', edited = Mutate.edit_one ~seed:2 apk in
        let changed =
          List.filter
            (fun (m : Dex_ir.meth) ->
              match Dex_ir.find_method apk m.name with
              | Some m0 -> m0.Dex_ir.insns <> m.Dex_ir.insns
              | None -> true)
            (Dex_ir.methods_of_apk apk')
        in
        (match changed with
         | [ m ] ->
           Alcotest.(check string) "the reported method"
             (Dex_ir.method_ref_to_string edited)
             (Dex_ir.method_ref_to_string m.Dex_ir.name)
         | ms -> Alcotest.failf "%d methods changed" (List.length ms));
        Alcotest.(check int) "method count unchanged"
          (Dex_ir.method_count apk)
          (Dex_ir.method_count apk')) ]

(* ---- Concurrent sharing: one cache, many domains (the calibrod shape) --- *)

let concurrent_tests =
  [ Alcotest.test_case "N domains sharing one cache build identical bytes"
      `Slow (fun () ->
        (* The daemon's steady state in miniature: worker domains build
           overlapping releases against one Cache.t. Every concurrent
           build must produce exactly the bytes its sequential cold twin
           does, and the counters must still add up afterwards: the cache
           may never lose a store or serve a stale artifact under
           contention. *)
        let apk = demo () in
        let mutants =
          Array.init 4 (fun i -> fst (Mutate.mutate ~seed:(i + 1) apk))
        in
        let cold =
          Array.map
            (fun m ->
              Digest.bytes
                (Pipeline.build ~cache:None ~config:Config.cto_ltbo m)
                  .Pipeline.b_oat.Calibro_oat.Oat_file.text)
            mutants
        in
        let h0 = counter "cache.method.hits" in
        let m0 = counter "cache.method.misses" in
        let s0 = counter "cache.method.stores" in
        let e0 = counter "cache.method.evictions" in
        let cache = Cache.create () in
        let domains =
          List.init 4 (fun d ->
              Domain.spawn (fun () ->
                  (* Each domain walks the mutants in a different order so
                     hits and misses interleave across domains. *)
                  Array.init (Array.length mutants) (fun i ->
                      let ix = (i + d) mod Array.length mutants in
                      let b =
                        Pipeline.build ~cache:(Some cache)
                          ~config:Config.cto_ltbo mutants.(ix)
                      in
                      ( ix,
                        Digest.bytes
                          b.Pipeline.b_oat.Calibro_oat.Oat_file.text ))))
        in
        let results = List.map Domain.join domains in
        (* Counters are snapshot only now, after every domain joined. *)
        List.iteri
          (fun d ->
            Array.iter (fun (ix, dg) ->
                Alcotest.(check string)
                  (Printf.sprintf "domain %d mutant %d matches cold build" d
                     ix)
                  (Digest.to_hex cold.(ix))
                  (Digest.to_hex dg)))
          results;
        let hits = counter "cache.method.hits" - h0 in
        let misses = counter "cache.method.misses" - m0 in
        let stores = counter "cache.method.stores" - s0 in
        let lookups =
          List.fold_left
            (fun acc m -> acc + List.length (Dex_ir.methods_of_apk m))
            0
            (Array.to_list mutants)
          * 4
        in
        Alcotest.(check int) "every lookup is a hit or a miss" lookups
          (hits + misses);
        Alcotest.(check int) "every miss is stored" misses stores;
        Alcotest.(check int) "nothing evicted" e0
          (counter "cache.method.evictions");
        Alcotest.(check bool)
          (Printf.sprintf "sharing pays (hits %d, misses %d)" hits misses)
          true
          (hits > 0)) ]

let suite =
  equivalence_tests @ disk_tests @ codec_tests @ mutate_tests
  @ concurrent_tests
