(* Tests for core modules not covered elsewhere: Seq_map, Redundancy,
   Parallel determinism, Config, Report. *)

open Calibro_core
open Calibro_dex
open Calibro_vm

let parse src =
  match Dex_text.parse src with
  | Ok apk -> apk
  | Error e -> Alcotest.failf "parse: %s" e

let header = ".apk t\n.dex d\n.class t\n"

let compile_methods apk =
  let b = Pipeline.build ~config:Config.baseline apk in
  let methods = Dex_ir.methods_of_apk apk in
  let slots = Hashtbl.create 4 in
  List.iteri (fun i (m : Dex_ir.meth) -> Hashtbl.replace slots m.name i) methods;
  List.map
    (fun m ->
      Calibro_codegen.Codegen.compile
        ~slot_of_method:(Hashtbl.find slots)
        (let g = Calibro_hgraph.Hgraph.of_method m in
         ignore (Calibro_hgraph.Passes.optimize g);
         g))
    methods
  |> fun cms -> (b, cms)

let compile_one src = compile_methods (parse src)

let seq_map_tests =
  [ Alcotest.test_case "separators are unique and cover control flow" `Quick
      (fun () ->
        let src =
          header
          ^ {|.method f params #2 regs #4 entry
  add v2, v0, v1
  ifz eq v2, :l
  mul v2, v2, v2
:l
  invoke t.g (v2) -> v3
  return v3
.end
.method g params #1 regs #2
  add v1, v0, #1
  return v1
.end
|}
        in
        let _, cms = compile_one src in
        let a = Seq_map.new_allocator () in
        let elements = Seq_map.map_method (List.hd cms) a in
        let seps =
          List.filter_map
            (fun (v, e) ->
              match e with Seq_map.Separator -> Some v | _ -> None)
            elements
        in
        (* all separator values distinct *)
        Alcotest.(check int) "unique seps" (List.length seps)
          (List.length (List.sort_uniq compare seps));
        (* at least the cbz, the bl-equivalents (blr/ldr x30), the b and ret *)
        Alcotest.(check bool) "has separators" true (List.length seps >= 4);
        (* word elements round-trip to their offsets *)
        List.iter
          (fun (v, e) ->
            match e with
            | Seq_map.Word (w, off) ->
              Alcotest.(check bool) "word below sep base" true
                (w < Seq_map.sep_base);
              Alcotest.(check bool) "offset aligned" true (off mod 4 = 0);
              Alcotest.(check int) "value is the encoded word" w v
            | Seq_map.Separator -> ())
          elements);
    Alcotest.test_case "hot eligibility maps to separators" `Quick (fun () ->
        let src =
          header
          ^ ".method f params #2 regs #4 entry\n  add v2, v0, v1\n  mul v3, v2, v2\n  sub v3, v3, v2\n  return v3\n.end\n"
        in
        let _, cms = compile_one src in
        let cm = List.hd cms in
        let a = Seq_map.new_allocator () in
        let all_sep =
          Seq_map.map_method ~eligible:(fun _ -> false) cm a
          |> List.for_all (fun (_, e) -> e = Seq_map.Separator)
        in
        Alcotest.(check bool) "all separators when ineligible" true all_sep);
    Alcotest.test_case "digest equality coincides with canonical equality"
      `Quick (fun () ->
        (* The detection cache keys groups by [method_digest]; a collision
           between distinct token runs would replay the wrong decisions, a
           split between identical runs would only cost a recompute. Check
           the iff on 500 random method pairs of the demo app (the
           generator repeats code shapes, so equal non-identical pairs do
           occur). *)
        let a = Calibro_workload.Appgen.generate Calibro_workload.Apps.demo in
        let _, cms = compile_methods a.Calibro_workload.Appgen.app in
        let arr = Array.of_list cms in
        let n = Array.length arr in
        let rng = Random.State.make [| 0x5e9; 42 |] in
        let equal_pairs = ref 0 in
        for _ = 1 to 500 do
          let i = Random.State.int rng n in
          let j =
            if Random.State.int rng 4 = 0 then i else Random.State.int rng n
          in
          let ci = Seq_map.canonical arr.(i)
          and cj = Seq_map.canonical arr.(j) in
          let di = Seq_map.digest ci and dj = Seq_map.digest cj in
          if ci = cj then incr equal_pairs;
          Alcotest.(check bool)
            (Printf.sprintf "pair (%d,%d)" i j)
            (ci = cj) (di = dj);
          Alcotest.(check string) "method_digest is digest of canonical" di
            (Seq_map.method_digest arr.(i))
        done;
        Alcotest.(check bool) "both directions exercised" true
          (!equal_pairs > 0 && !equal_pairs < 500))
  ]

let redundancy_tests =
  [ Alcotest.test_case "redundancy detects planted repeats" `Quick (fun () ->
        let body =
          "  add v2, v0, v1\n  mul v3, v2, v2\n  sub v4, v3, v0\n  xor v5, v4, v1\n  and v6, v5, v2\n  return v6\n"
        in
        let src =
          header
          ^ String.concat ""
              (List.init 6 (fun i ->
                   Printf.sprintf ".method m%d params #2 regs #7%s\n%s.end\n" i
                     (if i = 0 then " entry" else "")
                     body))
        in
        let b, _ = compile_one src in
        let a = Redundancy.analyze b.Pipeline.b_oat in
        Alcotest.(check bool) "found repeats" true (a.Redundancy.a_repeats > 0);
        Alcotest.(check bool)
          (Printf.sprintf "high ratio (%f)" a.Redundancy.a_ratio)
          true
          (a.Redundancy.a_ratio > 0.3);
        Alcotest.(check bool) "histogram non-empty" true
          (a.Redundancy.a_histogram <> []));
    Alcotest.test_case "pattern census counts the figure 4 patterns" `Quick
      (fun () ->
        let src =
          header
          ^ ".method g params #1 regs #2\n  add v1, v0, #1\n  return v1\n.end\n"
          ^ ".method f params #1 regs #4 entry\n  invoke t.g (v0) -> v1\n  rtcall pLogValue (v1)\n  new t.Box, v2\n  return v1\n.end\n"
        in
        let b, _ = compile_one src in
        let c = Redundancy.pattern_census b.Pipeline.b_oat in
        Alcotest.(check int) "java calls" 1 c.Redundancy.c_java_call;
        (* pLogValue + alloc for new *)
        Alcotest.(check int) "runtime calls" 2 c.Redundancy.c_runtime_call;
        (* one per method *)
        Alcotest.(check int) "stack checks" 2 c.Redundancy.c_stack_check);
    Alcotest.test_case "cto removes the patterns from the census" `Quick
      (fun () ->
        let src =
          header
          ^ ".method f params #1 regs #3 entry\n  rtcall pLogValue (v0)\n  return v0\n.end\n"
        in
        let apk = parse src in
        let b = Pipeline.build ~config:Config.cto apk in
        let c = Redundancy.pattern_census b.Pipeline.b_oat in
        Alcotest.(check int) "no inline runtime pattern" 0
          c.Redundancy.c_runtime_call;
        Alcotest.(check int) "no inline stack check" 0 c.Redundancy.c_stack_check)
  ]

let parallel_tests =
  [ Alcotest.test_case "parallel detection deterministic across k" `Quick
      (fun () ->
        (* same seed -> same partition -> same result *)
        let a = Calibro_workload.Appgen.generate Calibro_workload.Apps.demo in
        let apk = a.Calibro_workload.Appgen.app in
        let b1 = Pipeline.build ~config:(Config.cto_ltbo_pl ~k:4 ()) apk in
        let b2 = Pipeline.build ~config:(Config.cto_ltbo_pl ~k:4 ()) apk in
        Alcotest.(check int) "same size" (Pipeline.text_size b1)
          (Pipeline.text_size b2);
        Alcotest.(check bytes) "identical text"
          b1.Pipeline.b_oat.Calibro_oat.Oat_file.text
          b2.Pipeline.b_oat.Calibro_oat.Oat_file.text);
    Alcotest.test_case "more trees, less reduction (PlOpti tradeoff)" `Quick
      (fun () ->
        let a = Calibro_workload.Appgen.generate Calibro_workload.Apps.demo in
        let apk = a.Calibro_workload.Appgen.app in
        let one = Pipeline.build ~config:Config.cto_ltbo apk in
        let many = Pipeline.build ~config:(Config.cto_ltbo_pl ~k:8 ()) apk in
        Alcotest.(check bool)
          (Printf.sprintf "k=8 (%d) >= k=1 (%d)" (Pipeline.text_size many)
             (Pipeline.text_size one))
          true
          (Pipeline.text_size many >= Pipeline.text_size one));
    Alcotest.test_case "partition handles degenerate inputs" `Quick (fun () ->
        Alcotest.(check (list (list int))) "empty" []
          (Parallel.partition ~k:4 ~seed:1 []);
        let one = Parallel.partition ~k:8 ~seed:1 [ 42 ] in
        Alcotest.(check (list (list int))) "singleton" [ [ 42 ] ] one);
    Alcotest.test_case "partition properties: deterministic, non-empty, total"
      `Quick
      (fun () ->
        let input = List.init 37 (fun i -> i * 3) in
        List.iter
          (fun k ->
            let label s = Printf.sprintf "k=%d: %s" k s in
            let g1 = Parallel.partition ~k ~seed:7 input in
            let g2 = Parallel.partition ~k ~seed:7 input in
            Alcotest.(check (list (list int))) (label "same seed, same groups")
              g1 g2;
            Alcotest.(check bool) (label "groups non-empty") true
              (List.for_all (fun g -> g <> []) g1);
            Alcotest.(check bool) (label "at most k groups") true
              (List.length g1 <= k);
            Alcotest.(check (list int)) (label "union is the input")
              (List.sort compare input)
              (List.sort compare (List.concat g1)))
          [ 1; 2; 3; 8; 64 ]);
    Alcotest.test_case "partition distribution is not parity-structured"
      `Quick
      (fun () ->
        (* Regression for the power-of-two-modulus LCG shuffle: its low
           output bit alternated strictly, so with k=2 some elements were
           pinned to one group for most seeds (observed skew up to 6.5
           sigma). With 16 elements, k=2 and 200 seeds, each element's
           group-0 membership count is binomial(200, 1/2): mean 100,
           sigma ~7.1. Accept [70, 130] (+-4.2 sigma) — the biased
           shuffle produced counts of 54 and 139 on this exact input. *)
        let n = 16 and seeds = 200 in
        let input = List.init n Fun.id in
        let counts = Array.make n 0 in
        for seed = 0 to seeds - 1 do
          match Parallel.partition ~k:2 ~seed input with
          | [ g0; _ ] -> List.iter (fun e -> counts.(e) <- counts.(e) + 1) g0
          | gs ->
            Alcotest.failf "expected 2 groups, got %d" (List.length gs)
        done;
        Array.iteri
          (fun e c ->
            Alcotest.(check bool)
              (Printf.sprintf
                 "element %d group-0 count %d within [70, 130] of %d seeds" e
                 c seeds)
              true
              (c >= 70 && c <= 130))
          counts);
    Alcotest.test_case "domain pool matches sequential detection" `Slow
      (fun () ->
        (* More groups than domains forces detect_parallel to cycle the
           atomic work counter; the results must be identical to running
           Ltbo.detect over the same groups one by one, in input group
           order. *)
        let a = Calibro_workload.Appgen.generate Calibro_workload.Apps.demo in
        let _, cms = compile_methods a.Calibro_workload.Appgen.app in
        let marr = Array.of_list cms in
        let idxs =
          List.init (Array.length marr) Fun.id
          |> List.filter (fun i ->
                 Calibro_codegen.Meta.outlinable
                   marr.(i).Calibro_codegen.Compiled_method.meta)
        in
        let n_groups = (2 * Domain.recommended_domain_count ()) + 1 in
        let groups =
          List.init n_groups (fun i ->
              [ List.nth idxs (i mod List.length idxs) ])
        in
        let options = Ltbo.default_options in
        let par = Parallel.detect_parallel ~options marr groups in
        let seq = List.map (fun g -> Ltbo.detect ~options marr g) groups in
        Alcotest.(check int) "group count" (List.length seq) (List.length par);
        List.iteri
          (fun i (p, s) ->
            Alcotest.(check bool)
              (Printf.sprintf "group %d decisions+stats equal" i)
              true (p = s))
          (List.combine par seq))
  ]

(* ---- Parallel.map: the fork-join pool ------------------------------------ *)

let pool_size = max 0 (Domain.recommended_domain_count () - 1)
let self_id () = (Domain.self () :> int)

let parallel_map_tests =
  [ Alcotest.test_case "map keeps input order with more items than domains"
      `Quick (fun () ->
        let a = Array.init 1000 (fun i -> i) in
        let f i = (i * i) + Hashtbl.hash i in
        Alcotest.(check (array int)) "same as Array.map" (Array.map f a)
          (Parallel.map f a));
    Alcotest.test_case "map runs empty and one-element arrays on the caller"
      `Quick (fun () ->
        let ran = ref [] in
        let f x =
          ran := self_id () :: !ran;
          x + 1
        in
        Alcotest.(check (array int)) "empty" [||] (Parallel.map f [||]);
        Alcotest.(check (list int)) "f never ran" [] !ran;
        Alcotest.(check (array int)) "one element" [| 8 |]
          (Parallel.map f [| 7 |]);
        Alcotest.(check (list int)) "ran once, on the caller" [ self_id () ]
          !ran);
    Alcotest.test_case "map re-raises the lowest failing index" `Quick
      (fun () ->
        let f i =
          if i = 3 || i = 11 then
            raise (Calibro_hgraph.Passes.Pass_error (string_of_int i));
          Unix.sleepf 0.002;
          i
        in
        (match Parallel.map f (Array.init 16 Fun.id) with
         | _ -> Alcotest.fail "no exception"
         | exception Calibro_hgraph.Passes.Pass_error m ->
           Alcotest.(check string) "index 3's exception" "3" m);
        (* The pool survived: the next call still spreads its items over
           the helpers, and no new helper was spawned. *)
        let before = Parallel.helpers () in
        let ids =
          Parallel.map
            (fun _ ->
              Unix.sleepf 0.02;
              self_id ())
            (Array.make 8 ())
        in
        let domains = List.sort_uniq compare (Array.to_list ids) in
        Alcotest.(check int) "pool size unchanged" before (Parallel.helpers ());
        Alcotest.(check bool) "helpers took part" true
          (pool_size = 0 || List.length domains > 1));
    Alcotest.test_case "nested and concurrent maps finish" `Quick (fun () ->
        let inner i = Array.init 50 (fun j -> i * j) in
        let sum = Array.fold_left ( + ) 0 in
        let nested a =
          Parallel.map (fun i -> sum (Parallel.map Fun.id (inner i))) a
        in
        let a = Array.init 20 Fun.id in
        let want = Array.map (fun i -> sum (inner i)) a in
        Alcotest.(check (array int)) "nested" want (nested a);
        let caller () =
          List.init 20 (fun _ -> nested a = want) |> List.for_all Fun.id
        in
        let ds = List.init 2 (fun _ -> Domain.spawn caller) in
        Alcotest.(check (list bool)) "two concurrent callers" [ true; true ]
          (List.map Domain.join ds));
    Alcotest.test_case "50 builds leave exactly the pool's helpers" `Slow
      (fun () ->
        let apk =
          (Calibro_workload.Appgen.generate Calibro_workload.Apps.demo)
            .Calibro_workload.Appgen.app
        in
        for _ = 1 to 50 do
          ignore
            (Pipeline.build ~cache:None ~config:(Config.cto_ltbo_pl ~k:4 ())
               apk)
        done;
        Alcotest.(check int) "recommended - 1 helpers" pool_size
          (Parallel.helpers ()))
  ]

let workload_vm_tests =
  [ Alcotest.test_case "demo app scripts run clean on all configs" `Slow
      (fun () ->
        let a = Calibro_workload.Appgen.generate Calibro_workload.Apps.demo in
        let apk = a.Calibro_workload.Appgen.app in
        (match Dex_check.check apk with
         | Ok () -> ()
         | Error errs ->
           Alcotest.failf "invalid app: %s"
             (Dex_check.error_to_string (List.hd errs)));
        let run config =
          let b = Pipeline.build ~config apk in
          let t = Interp.load b.Pipeline.b_oat in
          List.map
            (fun (st : Calibro_workload.Appgen.script_step) ->
              match
                Interp.call t st.Calibro_workload.Appgen.sc_method
                  st.Calibro_workload.Appgen.sc_args
              with
              | Interp.Fault m -> Alcotest.failf "fault: %s" m
              | Interp.Returned v -> v
              | Interp.Thrown _ -> min_int)
            a.Calibro_workload.Appgen.app_script
        in
        let base = run Config.baseline in
        List.iter
          (fun config ->
            Alcotest.(check (list int))
              ("config " ^ config.Config.name)
              base (run config))
          [ Config.cto; Config.cto_ltbo; Config.cto_ltbo_pl ~k:4 () ])
  ]

let profile_tests =
  [ Alcotest.test_case "profile round trips through text" `Quick (fun () ->
        let p =
          [ { Calibro_profile.Profile.s_method =
                { Dex_ir.class_name = "a.B"; method_name = "m" };
              s_cycles = 123 };
            { Calibro_profile.Profile.s_method =
                { Dex_ir.class_name = "c.D"; method_name = "n" };
              s_cycles = 456 } ]
        in
        let s = Calibro_profile.Profile.to_string p in
        match Calibro_profile.Profile.of_string s with
        | Ok p2 -> Alcotest.(check bool) "equal" true (p = p2)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "hot_set covers the requested fraction" `Quick
      (fun () ->
        let mk n c =
          { Calibro_profile.Profile.s_method =
              { Dex_ir.class_name = "x"; method_name = n };
            s_cycles = c }
        in
        let p = [ mk "a" 50; mk "b" 30; mk "c" 15; mk "d" 5 ] in
        let hot = Calibro_profile.Profile.hot_set ~coverage:0.8 p in
        Alcotest.(check int) "two methods reach 80%" 2 (List.length hot);
        let all = Calibro_profile.Profile.hot_set ~coverage:1.0 p in
        Alcotest.(check int) "full coverage" 4 (List.length all);
        Alcotest.(check (list string)) "sorted by heat"
          [ "a"; "b" ]
          (List.map (fun (m : Dex_ir.method_ref) -> m.method_name) hot));
    Alcotest.test_case "hot_set ignores zero-cycle methods" `Quick (fun () ->
        let mk n c =
          { Calibro_profile.Profile.s_method =
              { Dex_ir.class_name = "x"; method_name = n };
            s_cycles = c }
        in
        let hot =
          Calibro_profile.Profile.hot_set ~coverage:1.0 [ mk "a" 10; mk "z" 0 ]
        in
        Alcotest.(check int) "only the live one" 1 (List.length hot));
    Alcotest.test_case "merge sums cycles per method" `Quick (fun () ->
        let mk n c =
          { Calibro_profile.Profile.s_method =
              { Dex_ir.class_name = "x"; method_name = n };
            s_cycles = c }
        in
        let merged =
          Calibro_profile.Profile.merge [ mk "a" 10 ] [ mk "a" 5; mk "b" 1 ]
        in
        Alcotest.(check int) "total" 16 (Calibro_profile.Profile.total merged);
        Alcotest.(check int) "methods" 2 (List.length merged));
    Alcotest.test_case "of_string rejects malformed input with Error" `Quick
      (fun () ->
        let expect_error what s =
          match Calibro_profile.Profile.of_string s with
          | Ok _ -> Alcotest.failf "%s: accepted %S" what s
          | Error e ->
            Alcotest.(check bool) (what ^ ": message non-empty") true (e <> "")
        in
        expect_error "too few fields" "a.B m\n";
        expect_error "too many fields" "a.B m 12 extra\n";
        expect_error "non-numeric cycles" "a.B m twelve\n";
        expect_error "garbage line" "!!!\n";
        (* valid-looking lines around a bad one still yield Error *)
        expect_error "bad line amid good" "a.B m 1\nbroken\nc.D n 2\n";
        (* empty and whitespace-only input are vacuously valid *)
        match Calibro_profile.Profile.of_string "\n  \n" with
        | Ok [] -> ()
        | Ok _ -> Alcotest.fail "whitespace parsed to samples"
        | Error e -> Alcotest.failf "whitespace rejected: %s" e);
    Alcotest.test_case "load returns Error for unreadable paths" `Quick
      (fun () ->
        match Calibro_profile.Profile.load "/nonexistent/calibro.prof" with
        | Ok _ -> Alcotest.fail "loaded a nonexistent file"
        | Error e -> Alcotest.(check bool) "message" true (e <> ""));
    Alcotest.test_case "of_string tolerates stray whitespace" `Quick
      (fun () ->
        (* trailing blanks, repeated separators, indented lines: all the
           shapes a hand-edited or concatenated Figure 6 file takes *)
        match
          Calibro_profile.Profile.of_string "  a.B   m    7   \nc.D n 3\t\n"
        with
        | Error e -> Alcotest.failf "whitespace rejected: %s" e
        | Ok p ->
          Alcotest.(check int) "both lines parsed" 2 (List.length p);
          Alcotest.(check int) "cycles kept" 10
            (Calibro_profile.Profile.total p));
    Alcotest.test_case "of_string sums duplicate method lines" `Quick
      (fun () ->
        (* concatenating two report files duplicates methods; the sum must
           land on the first occurrence, once *)
        match Calibro_profile.Profile.of_string "a.B m 7\nc.D n 3\na.B m 5\n"
        with
        | Error e -> Alcotest.failf "duplicates rejected: %s" e
        | Ok p ->
          Alcotest.(check int) "two methods, not three" 2 (List.length p);
          let cycles_of name =
            List.find_map
              (fun (s : Calibro_profile.Profile.sample) ->
                if s.s_method.Dex_ir.method_name = name then Some s.s_cycles
                else None)
              p
          in
          Alcotest.(check (option int)) "summed" (Some 12) (cycles_of "m");
          Alcotest.(check (option int)) "untouched" (Some 3) (cycles_of "n"));
    Alcotest.test_case "of_string round-trips zero-cycle samples" `Quick
      (fun () ->
        let p =
          [ { Calibro_profile.Profile.s_method =
                { Dex_ir.class_name = "a.B"; method_name = "live" };
              s_cycles = 9 };
            { Calibro_profile.Profile.s_method =
                { Dex_ir.class_name = "a.B"; method_name = "dead" };
              s_cycles = 0 } ]
        in
        match
          Calibro_profile.Profile.of_string
            (Calibro_profile.Profile.to_string p)
        with
        | Ok p2 -> Alcotest.(check bool) "preserved" true (p = p2)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "of_string rejects negative cycles" `Quick (fun () ->
        match Calibro_profile.Profile.of_string "a.B m -3\n" with
        | Ok _ -> Alcotest.fail "accepted a negative cycle count"
        | Error e -> Alcotest.(check bool) "message" true (e <> ""));
    Alcotest.test_case "save returns Error for unwritable paths" `Quick
      (fun () ->
        match
          Calibro_profile.Profile.save
            [ { Calibro_profile.Profile.s_method =
                  { Dex_ir.class_name = "a.B"; method_name = "m" };
                s_cycles = 1 } ]
            "/nonexistent-dir/calibro.prof"
        with
        | Ok () -> Alcotest.fail "saved into a nonexistent directory"
        | Error e -> Alcotest.(check bool) "message" true (e <> ""))
  ]

let report_tests =
  [ Alcotest.test_case "render fills short rows with /" `Quick (fun () ->
        let t =
          { Report.title = "t";
            columns = [ "A"; "B" ];
            (* full rows carry one cell per column plus AVG *)
            rows =
              [ ("full", [ "1"; "2"; "3" ]); ("short", [ "only" ]) ] }
        in
        let out = Report.render t in
        let lines = String.split_on_char '\n' out in
        let row prefix =
          match
            List.find_opt (fun l -> Astring.String.is_prefix ~affix:prefix l)
              lines
          with
          | Some l -> l
          | None -> Alcotest.failf "row %S missing in %s" prefix out
        in
        Alcotest.(check bool) "short row padded with /" true
          (Astring.String.is_infix ~affix:"/" (row "short"));
        Alcotest.(check bool) "full row not padded" false
          (Astring.String.is_infix ~affix:"/" (row "full"));
        Alcotest.(check bool) "AVG column present" true
          (Astring.String.is_infix ~affix:"AVG" out))
  ]

let pipeline_edge_tests =
  [ Alcotest.test_case "codegen: largest frame fits sub's imm12" `Quick
      (fun () ->
        let open Calibro_aarch64 in
        let sub num_vregs =
          Encode.encode
            (Isa.sub ~size:Isa.X Isa.sp Isa.sp
               (Calibro_codegen.Abi.frame_size ~num_vregs))
        in
        ignore (sub Dex_check.max_vregs : int);
        match sub (Dex_check.max_vregs + 1) with
        | exception Encode.Error _ -> ()
        | _ -> Alcotest.fail "a frame one vreg larger still encodes");
    Alcotest.test_case "frames past max_vregs are a typed build error" `Quick
      (fun () ->
        let build ?(config = Config.baseline) regs =
          Pipeline.build ~config
            (parse
               (header
               ^ Printf.sprintf
                   ".method f params #1 regs #%d entry\n  return v0\n.end\n"
                   regs))
        in
        ignore (build Dex_check.max_vregs : Pipeline.build);
        ignore (build ~config:Config.cto_ltbo Dex_check.max_vregs : Pipeline.build);
        List.iter
          (fun regs ->
            match build regs with
            | exception Pipeline.Build_error m ->
              Alcotest.(check bool) m true
                (Astring.String.is_infix ~affix:"exceeds 508" m)
            | _ -> Alcotest.failf "regs #%d built" regs)
          [ 509; 100_000_000 ]);
    Alcotest.test_case "reduction_vs is 0 on an empty baseline" `Quick
      (fun () ->
        (* An app with no methods has an empty text segment; the reduction
           ratio must degrade to 0.0, not 0/0 = NaN. *)
        let apk = parse header in
        let b = Pipeline.build ~config:Config.baseline apk in
        Alcotest.(check int) "empty text" 0 (Pipeline.text_size b);
        let r = Pipeline.reduction_vs ~baseline:b b in
        Alcotest.(check (float 0.0)) "zero, not NaN" 0.0 r)
  ]

let suite =
  seq_map_tests @ redundancy_tests @ parallel_tests @ pipeline_edge_tests
  @ workload_vm_tests @ profile_tests @ report_tests @ parallel_map_tests
