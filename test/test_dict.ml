(* Tests for the store-wide shared outline dictionary (lib/dict): mining
   and ranking, prelink-style binding at link time, byte-faithful
   execution in the simulator, persistence with its corruption battery
   (truncation, bit rot, damaged tables — every one a typed error and a
   clean fall back to per-app outlining), and the dictionary-rotation
   cache-miss semantics of the detect memo. *)

open Calibro_core
module Appgen = Calibro_workload.Appgen
module Apps = Calibro_workload.Apps
module Dict = Calibro_dict.Dict
module Oat = Calibro_oat.Oat_file
module Linker = Calibro_oat.Linker
module Abi = Calibro_codegen.Abi
module Interp = Calibro_vm.Interp
module Cache = Calibro_cache.Cache
module Fault = Calibro_check.Fault
module Invariants = Calibro_check.Invariants
module Oracle = Calibro_check.Oracle
module Obs = Calibro_obs.Obs

let counter = Obs.Counter.value
let pl8 = Config.cto_ltbo_pl ~k:8 ()
let demo_apk () = (Appgen.generate Apps.demo).Appgen.app

let build ?dict apk = Pipeline.build ~cache:None ~config:pl8 ?dict apk

(* A dictionary carrying every body the demo build outlines: the build
   counted as two apps, so each body clears the >= 2-apps mining bar. *)
let demo_dict () =
  let b = build (demo_apk ()) in
  (b, Dict.of_oats [ b.Pipeline.b_oat; b.Pipeline.b_oat ])

let extents d = List.map (fun e -> (e.Dict.e_offset, e.Dict.e_size)) (Dict.entries d)

let with_tmpdir f =
  let dir =
    Filename.temp_file "calibro-dict-test" ""
    |> fun f ->
    Sys.remove f;
    Unix.mkdir f 0o700;
    f
  in
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      rm dir)
    (fun () -> f dir)

(* ---- Mining ------------------------------------------------------------- *)

let mining_tests =
  [ Alcotest.test_case "mining is deterministic, ranked, and tiles the image"
      `Quick (fun () ->
        let _, d1 = demo_dict () in
        let _, d2 = demo_dict () in
        Alcotest.(check bool) "has bodies" true (Dict.n_bodies d1 > 0);
        Alcotest.(check string) "same digest" (Dict.digest d1) (Dict.digest d2);
        Alcotest.(check (list (pair int int)))
          "same entries" (extents d1) (extents d2);
        (* Ranked by fleet-wide saving, best first. *)
        let savings =
          List.map
            (fun e -> Dict.saved ~apps:e.Dict.e_apps ~size:e.Dict.e_size)
            (Dict.entries d1)
        in
        Alcotest.(check (list int))
          "ranked by saving" (List.sort (fun a b -> compare b a) savings)
          savings;
        (* Entries tile the image exactly. *)
        let pos = ref 0 in
        List.iter
          (fun (off, size) ->
            Alcotest.(check int) "tiles" !pos off;
            pos := off + size)
          (extents d1);
        Alcotest.(check int) "covers the image" (Dict.size d1) !pos);
    Alcotest.test_case "bodies carried by a single app are not shared" `Quick
      (fun () ->
        let b = build (demo_apk ()) in
        let d = Dict.of_oats [ b.Pipeline.b_oat ] in
        Alcotest.(check int) "no winners" 0 (Dict.n_bodies d));
    Alcotest.test_case "cross-app mining over the store finds repeats" `Quick
      (fun () ->
        (* Two different store apps genuinely share outlined bodies — the
           premise of the whole pass. *)
        let oats =
          List.map
            (fun p ->
              (build (Appgen.generate p).Appgen.app).Pipeline.b_oat)
            [ Apps.toutiao; Apps.taobao ]
        in
        let d = Dict.of_oats oats in
        Alcotest.(check bool) "found shared bodies" true (Dict.n_bodies d > 0);
        List.iter
          (fun e -> Alcotest.(check int) "two apps" 2 e.Dict.e_apps)
          (Dict.entries d));
    Alcotest.test_case "the empty dictionary is valid and binds nothing"
      `Quick (fun () ->
        let d = Dict.of_oats [] in
        Alcotest.(check int) "empty" 0 (Dict.size d);
        let apk = demo_apk () in
        let plain = build apk in
        let bound = build ~dict:(Dict.linker_dict d) apk in
        Alcotest.(check bool) "byte-identical text" true
          (Bytes.equal plain.Pipeline.b_oat.Oat.text
             bound.Pipeline.b_oat.Oat.text);
        Alcotest.(check (option string))
          "self-contained" None bound.Pipeline.b_oat.Oat.dict_digest)
  ]

(* ---- Linking ------------------------------------------------------------ *)

let link_tests =
  [ Alcotest.test_case "linking binds shared bodies to dictionary slots"
      `Quick (fun () ->
        let apk = demo_apk () in
        let plain = build apk in
        let c0 = counter "linker.dict_bound" in
        let d = Dict.of_oats [ plain.Pipeline.b_oat; plain.Pipeline.b_oat ] in
        let bound = build ~dict:(Dict.linker_dict d) apk in
        Alcotest.(check bool) "bound some bodies" true
          (counter "linker.dict_bound" - c0 > 0);
        Alcotest.(check bool) "text shrank" true
          (Pipeline.text_size bound < Pipeline.text_size plain);
        Alcotest.(check (option string))
          "records the digest" (Some (Dict.digest d))
          bound.Pipeline.b_oat.Oat.dict_digest);
    Alcotest.test_case
      "invariants accept dictionary calls only with the extents" `Quick
      (fun () ->
        let _, d = demo_dict () in
        let bound = build ~dict:(Dict.linker_dict d) (demo_apk ()) in
        Alcotest.(check (list string))
          "clean with extents" []
          (List.map Invariants.violation_to_string
             (Invariants.check ~dict:(extents d) bound.Pipeline.b_oat));
        (* Without them, the same [bl]s into dict_base are dangling: the
           checker must not silently wave absolute far targets through. *)
        Alcotest.(check bool) "dangling without extents" true
          (Invariants.check bound.Pipeline.b_oat <> []));
    Alcotest.test_case "the dictionary image itself passes its checker"
      `Quick (fun () ->
        let _, d = demo_dict () in
        Alcotest.(check (list string))
          "well-formed" []
          (List.map Invariants.violation_to_string
             (Invariants.check_dict_image ~image:(Dict.image d) (extents d))))
  ]

(* ---- Execution ---------------------------------------------------------- *)

let vm_tests =
  [ Alcotest.test_case
      "dict-bound code executes byte-faithfully against the baseline" `Quick
      (fun () ->
        let _, d = demo_dict () in
        match Oracle.run ~configs:[ pl8 ] ~dict:d (demo_apk ()) with
        | Error e -> Alcotest.failf "oracle error: %s" e
        | Ok r ->
          Alcotest.(check (list string))
            "no divergences" []
            (List.map Oracle.divergence_to_string r.Oracle.r_divergences));
    Alcotest.test_case "the simulator refuses a missing or wrong dictionary"
      `Quick (fun () ->
        let _, d = demo_dict () in
        let bound = build ~dict:(Dict.linker_dict d) (demo_apk ()) in
        (match Interp.load bound.Pipeline.b_oat with
         | exception Interp.Dict_mismatch { got = None; _ } -> ()
         | exception Interp.Dict_mismatch _ ->
           Alcotest.fail "mismatch should report no dictionary"
         | _ -> Alcotest.fail "loaded a dict-relative OAT with no dictionary");
        let rotated = { (Dict.vm_image d) with Interp.di_digest = "rotated" } in
        (match Interp.load ~dict:rotated bound.Pipeline.b_oat with
         | exception Interp.Dict_mismatch { got = Some "rotated"; _ } -> ()
         | exception Interp.Dict_mismatch _ ->
           Alcotest.fail "mismatch should report the offered digest"
         | _ -> Alcotest.fail "loaded against a rotated dictionary");
        (* A self-contained OAT under an ambient dictionary is harmless. *)
        let plain = build (demo_apk ()) in
        ignore (Interp.load ~dict:(Dict.vm_image d) plain.Pipeline.b_oat))
  ]

(* ---- Persistence and the corruption battery ----------------------------- *)

let persist_tests =
  [ Alcotest.test_case "save/load round-trips digest, image and entries"
      `Quick (fun () ->
        with_tmpdir @@ fun dir ->
        let _, d = demo_dict () in
        let path = Filename.concat dir "store.dict" in
        Dict.save d path;
        match Dict.load path with
        | Error e -> Alcotest.failf "load: %s" e
        | Ok d' ->
          Alcotest.(check string) "digest" (Dict.digest d) (Dict.digest d');
          Alcotest.(check bool) "image" true
            (Bytes.equal (Dict.image d) (Dict.image d'));
          Alcotest.(check (list (pair int int)))
            "entries" (extents d) (extents d'));
    Alcotest.test_case "a truncated dictionary is a typed load error" `Quick
      (fun () ->
        with_tmpdir @@ fun dir ->
        let _, d = demo_dict () in
        let path = Filename.concat dir "store.dict" in
        Dict.save d path;
        let c0 = counter "fault.injected.dict-truncate" in
        Fault.Dict.truncate path;
        Alcotest.(check int) "fault counted" 1
          (counter "fault.injected.dict-truncate" - c0);
        match Dict.load path with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "loaded a truncated dictionary");
    Alcotest.test_case "a flipped image byte fails the digest check" `Quick
      (fun () ->
        with_tmpdir @@ fun dir ->
        let _, d = demo_dict () in
        let path = Filename.concat dir "store.dict" in
        Dict.save d path;
        let c0 = counter "fault.injected.dict-bitflip" in
        Fault.Dict.bitflip path;
        Alcotest.(check int) "fault counted" 1
          (counter "fault.injected.dict-bitflip" - c0);
        match Dict.load path with
        | Error e ->
          Alcotest.(check bool) "digest mismatch" true
            (Astring.String.is_infix ~affix:"digest mismatch" e)
        | Ok _ -> Alcotest.fail "loaded a bit-rotted dictionary");
    Alcotest.test_case "a flipped header byte is a typed load error" `Quick
      (fun () ->
        with_tmpdir @@ fun dir ->
        let _, d = demo_dict () in
        let path = Filename.concat dir "store.dict" in
        Dict.save d path;
        (* Byte 8 is the container version field. *)
        Fault.Dict.bitflip ~at:8 path;
        match Dict.load path with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "loaded a dictionary with a damaged header");
    Alcotest.test_case "a non-tiling entry table is refused" `Quick (fun () ->
        let _, d = demo_dict () in
        let oat = Dict.to_oat d in
        let damaged = { oat with Oat.outlined = List.tl oat.Oat.outlined } in
        (match Dict.of_oat_container damaged with
         | Error e ->
           Alcotest.(check bool) "tiling error" true
             (Astring.String.is_infix ~affix:"tile" e)
         | Ok _ -> Alcotest.fail "accepted a non-tiling table");
        match Dict.of_oat_container (build (demo_apk ())).Pipeline.b_oat with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted a non-dictionary container");
    Alcotest.test_case
      "a corrupt dictionary falls back to per-app outlining, never wrong code"
      `Quick (fun () ->
        with_tmpdir @@ fun dir ->
        let apk = demo_apk () in
        let plain = build apk in
        let d =
          Dict.of_oats [ plain.Pipeline.b_oat; plain.Pipeline.b_oat ]
        in
        let path = Filename.concat dir "store.dict" in
        Dict.save d path;
        Fault.Dict.bitflip path;
        (* The consumer pattern every tool uses: a failed load means no
           dictionary, and the build self-contains — byte-identical to a
           build that never heard of the store. *)
        let dict =
          match Dict.load path with
          | Ok d -> Some (Dict.linker_dict d)
          | Error _ -> None
        in
        Alcotest.(check bool) "fell back" true (dict = None);
        let rebuilt = Pipeline.build ~cache:None ~config:pl8 ?dict apk in
        Alcotest.(check bool) "byte-identical to per-app outlining" true
          (Bytes.equal plain.Pipeline.b_oat.Oat.text
             rebuilt.Pipeline.b_oat.Oat.text);
        Alcotest.(check (option string))
          "self-contained" None rebuilt.Pipeline.b_oat.Oat.dict_digest)
  ]

(* ---- Rotation and the detect memo --------------------------------------- *)

let rotation_tests =
  [ Alcotest.test_case
      "dictionary rotation misses the detect memo, never replays stale"
      `Quick (fun () ->
        with_tmpdir @@ fun dir ->
        let c = Cache.create ~dir () in
        let apk = demo_apk () in
        let plain = build apk in
        let d = Dict.of_oats [ plain.Pipeline.b_oat; plain.Pipeline.b_oat ] in
        let ld = Dict.linker_dict d in
        let build_with dict =
          Pipeline.build ~cache:(Some c) ~config:pl8 ~dict apk
        in
        let hits () = counter "cache.detect.hits"
        and misses () = counter "cache.detect.misses" in
        let m0 = misses () in
        let b1 = build_with ld in
        Alcotest.(check bool) "cold build misses" true (misses () - m0 > 0);
        let h1 = hits () and m1 = misses () in
        let b2 = build_with ld in
        Alcotest.(check bool) "warm same-dict build hits" true
          (hits () - h1 > 0);
        Alcotest.(check int) "and never misses" 0 (misses () - m1);
        Alcotest.(check bool) "warm output byte-identical" true
          (Bytes.equal b1.Pipeline.b_oat.Oat.text b2.Pipeline.b_oat.Oat.text);
        (* Rotate: same slots, new digest. The memo must miss — entries
           keyed to the old dictionary can never be replayed — and the
           rebuilt code must still be correct (identical text; only the
           recorded digest follows the rotation). *)
        let rotated = { ld with Linker.dct_digest = "rotated-digest" } in
        let h2 = hits () and m2 = misses () in
        let b3 = build_with rotated in
        Alcotest.(check int) "rotation never hits" 0 (hits () - h2);
        Alcotest.(check bool) "rotation misses" true (misses () - m2 > 0);
        Alcotest.(check bool) "rotated text identical" true
          (Bytes.equal b1.Pipeline.b_oat.Oat.text b3.Pipeline.b_oat.Oat.text);
        Alcotest.(check (option string))
          "rotated digest recorded" (Some "rotated-digest")
          b3.Pipeline.b_oat.Oat.dict_digest);
    Alcotest.test_case "the four memo scopes never share a detect entry"
      `Quick (fun () ->
        (* One group, detected into one cache under each scope in turn:
           every scope must miss on its first lookup — so its key differs
           from every scope already stored — and hit on its second. *)
        let apk = demo_apk () in
        let ld = Dict.linker_dict (snd (demo_dict ())) in
        let plan = Calibro_shelve.Shelve.plan ~coverage:0.8 ~warm:[] in
        let scope = Pipeline.memo_scope in
        let rotated = { ld with Linker.dct_digest = "rotated-digest" } in
        let scopes =
          [ ("plain", scope ());
            ("dict", scope ~dict:ld ());
            ("shelve", scope ~shelve:plan ());
            ("dict+shelve", scope ~dict:ld ~shelve:plan ());
            ("rotated dict", scope ~dict:rotated ());
            ("rotated dict+shelve", scope ~dict:rotated ~shelve:plan ()) ]
        in
        let methods = Calibro_dex.Dex_ir.methods_of_apk apk in
        let slots = Hashtbl.create 64 in
        List.iteri
          (fun i (m : Calibro_dex.Dex_ir.meth) ->
            Hashtbl.replace slots m.Calibro_dex.Dex_ir.name i)
          methods;
        let compiled =
          List.map
            (fun m ->
              Calibro_codegen.Codegen.compile
                ~slot_of_method:(Hashtbl.find slots)
                (Calibro_hgraph.Hgraph.of_method m))
            methods
        in
        let marr = Array.of_list compiled
        and group = Ltbo.candidates compiled in
        let c = Cache.create () in
        let hits () = counter "cache.detect.hits"
        and misses () = counter "cache.detect.misses" in
        let results =
          List.map
            (fun (name, scope) ->
              let detect () =
                Ltbo.detect ~cache:c ~scope ~options:Ltbo.default_options marr
                  group
              in
              let h0 = hits () and m0 = misses () in
              let r = detect () in
              Alcotest.(check (pair int int)) (name ^ ": first lookup misses")
                (0, 1) (hits () - h0, misses () - m0);
              let h1 = hits () and m1 = misses () in
              let r' = detect () in
              Alcotest.(check (pair int int)) (name ^ ": second lookup hits")
                (1, 0) (hits () - h1, misses () - m1);
              Alcotest.(check bool) (name ^ ": hit replays the result") true
                (r = r');
              r)
            scopes
        in
        Alcotest.(check bool) "the scope changes the key, not the result" true
          (List.for_all (( = ) (List.hd results)) results))
  ]

let suite =
  mining_tests @ link_tests @ vm_tests @ persist_tests @ rotation_tests
