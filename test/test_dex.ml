(* Tests for the DEX-like IR: parser/printer round trips, checker. *)

open Calibro_dex
open Dex_ir

let sample =
  {|
.apk demo
.dex classes01
.class com.demo.Main
.method run params #1 regs #4 entry
  const v1, #2
  mul v2, v0, v1
  ifz eq v2, :zero
  rtcall pLogValue (v2)
  goto :done
:zero
  const v2, #0
:done
  return v2
.end
.method helper params #2 regs #3
  add v2, v0, v1
  return v2
.end
.class com.demo.Aux
.method caller params #0 regs #3 entry
  const v0, #1
  const v1, #2
  invoke com.demo.Main.helper (v0, v1) -> v2
  rtcall pLogValue (v2)
  return
.end
|}

let parse_ok src =
  match Dex_text.parse src with
  | Ok apk -> apk
  | Error e -> Alcotest.failf "parse error: %s" e

let suite =
  [ Alcotest.test_case "parse sample" `Quick (fun () ->
        let apk = parse_ok sample in
        Alcotest.(check string) "name" "demo" apk.apk_name;
        Alcotest.(check int) "methods" 3 (method_count apk);
        let run =
          Option.get
            (find_method apk { class_name = "com.demo.Main"; method_name = "run" })
        in
        Alcotest.(check bool) "entry" true run.is_entry;
        Alcotest.(check int) "insns" 7 (Array.length run.insns);
        (match run.insns.(2) with
         | Ifz (Eq, 2, 5) -> ()
         | _ -> Alcotest.fail "ifz target mis-resolved");
        match run.insns.(4) with
        | Goto 6 -> ()
        | _ -> Alcotest.fail "goto target mis-resolved");
    Alcotest.test_case "print/parse round trip" `Quick (fun () ->
        let apk = parse_ok sample in
        let printed = Dex_text.to_string apk in
        let apk2 = parse_ok printed in
        Alcotest.(check string) "stable" printed (Dex_text.to_string apk2);
        Alcotest.(check bool) "structurally equal" true (apk = apk2));
    Alcotest.test_case "checker accepts sample" `Quick (fun () ->
        match Dex_check.check (parse_ok sample) with
        | Ok () -> ()
        | Error errs ->
          Alcotest.failf "unexpected: %s"
            (String.concat "; " (List.map Dex_check.error_to_string errs)));
    Alcotest.test_case "parse errors carry line numbers" `Quick (fun () ->
        match Dex_text.parse ".apk x\n.dex d\n.class c\n.method m params #0 regs #1\n  bogus v0\n.end\n" with
        | Ok _ -> Alcotest.fail "expected parse error"
        | Error e ->
          Alcotest.(check bool) ("mentions line 5: " ^ e) true
            (Astring.String.is_infix ~affix:"line 5" e
             || String.length e > 0 && Astring.String.is_infix ~affix:"bogus" e));
    Alcotest.test_case "undefined label rejected" `Quick (fun () ->
        match Dex_text.parse ".apk x\n.dex d\n.class c\n.method m params #0 regs #1\n  goto :nowhere\n.end\n" with
        | Ok _ -> Alcotest.fail "expected parse error"
        | Error e ->
          Alcotest.(check bool) e true
            (Astring.String.is_infix ~affix:"nowhere" e));
    Alcotest.test_case "duplicate label rejected" `Quick (fun () ->
        match
          Dex_text.parse
            ".apk x\n.dex d\n.class c\n.method m params #0 regs #1\n:l\n  const v0, #1\n:l\n  return\n.end\n"
        with
        | Ok _ -> Alcotest.fail "expected parse error"
        | Error e ->
          Alcotest.(check bool) e true (Astring.String.is_infix ~affix:"duplicate" e));
    Alcotest.test_case "checker: register out of range" `Quick (fun () ->
        let m =
          { name = { class_name = "c"; method_name = "m" };
            num_params = 0; num_vregs = 2; is_native = false; is_entry = false;
            insns = [| Const (5, 1); Return None |] }
        in
        Alcotest.(check bool) "errors" true (Dex_check.check_method m <> []));
    Alcotest.test_case "checker: fallthrough off end" `Quick (fun () ->
        let m =
          { name = { class_name = "c"; method_name = "m" };
            num_params = 0; num_vregs = 2; is_native = false; is_entry = false;
            insns = [| Const (0, 1) |] }
        in
        Alcotest.(check bool) "errors" true (Dex_check.check_method m <> []));
    Alcotest.test_case "checker: call arity mismatch" `Quick (fun () ->
        let src =
          ".apk x\n.dex d\n.class c\n.method f params #2 regs #3\n  return v0\n.end\n.method g params #0 regs #2\n  const v0, #1\n  invoke c.f (v0) -> v1\n  return\n.end\n"
        in
        match Dex_check.check (parse_ok src) with
        | Ok () -> Alcotest.fail "expected arity error"
        | Error errs ->
          Alcotest.(check bool) "mentions arity" true
            (List.exists
               (fun e ->
                 Astring.String.is_infix ~affix:"expects 2"
                   (Dex_check.error_to_string e))
               errs));
    Alcotest.test_case "checker: undefined callee" `Quick (fun () ->
        let src =
          ".apk x\n.dex d\n.class c\n.method g params #0 regs #1\n  invoke c.missing ()\n  return\n.end\n"
        in
        match Dex_check.check (parse_ok src) with
        | Ok () -> Alcotest.fail "expected undefined-callee error"
        | Error errs ->
          Alcotest.(check bool) "mentions undefined" true
            (List.exists
               (fun e ->
                 Astring.String.is_infix ~affix:"undefined"
                   (Dex_check.error_to_string e))
               errs));
    Alcotest.test_case "native method parses" `Quick (fun () ->
        let src = ".apk x\n.dex d\n.class c\n.method n params #1 regs #1 native\n.end\n" in
        let apk = parse_ok src in
        let m = List.hd (methods_of_apk apk) in
        Alcotest.(check bool) "native" true m.is_native;
        match Dex_check.check apk with
        | Ok () -> ()
        | Error errs ->
          Alcotest.failf "unexpected: %s"
            (String.concat "; " (List.map Dex_check.error_to_string errs)));
    Alcotest.test_case "switch parses and resolves" `Quick (fun () ->
        let src =
          ".apk x\n.dex d\n.class c\n.method s params #1 regs #2\n  switch v0 (:a, :b)\n:a\n  const v1, #1\n  return v1\n:b\n  const v1, #2\n  return v1\n.end\n"
        in
        let apk = parse_ok src in
        let m = List.hd (methods_of_apk apk) in
        (match m.insns.(0) with
         | Switch (0, [ 1; 3 ]) -> ()
         | _ -> Alcotest.fail "switch targets wrong");
        Alcotest.(check bool) "check ok" true (Dex_check.check apk = Ok ()));
    Alcotest.test_case "string literals with escapes round trip" `Quick
      (fun () ->
        let src =
          ".apk x\n.dex d\n.class c\n.method m params #0 regs #1\n  string v0, \"a\\n\\\"b\\\\c\"\n  return\n.end\n"
        in
        let apk = parse_ok src in
        let m = List.hd (methods_of_apk apk) in
        (match m.insns.(0) with
         | Const_string (0, s) -> Alcotest.(check string) "escaped" "a\n\"b\\c" s
         | _ -> Alcotest.fail "expected string insn");
        let apk2 = parse_ok (Dex_text.to_string apk) in
        Alcotest.(check bool) "round trip" true (apk = apk2))
  ]

let literal_div_tests =
  [ Alcotest.test_case "checker: literal division by zero" `Quick (fun () ->
        let m =
          { name = { class_name = "c"; method_name = "m" };
            num_params = 1; num_vregs = 2; is_native = false; is_entry = false;
            insns = [| Binop_lit (Div, 1, 0, 0); Return (Some 1) |] }
        in
        Alcotest.(check bool) "rejected" true (Dex_check.check_method m <> []);
        let ok =
          { m with insns = [| Binop_lit (Div, 1, 0, 2); Return (Some 1) |] }
        in
        Alcotest.(check (list string)) "non-zero fine" []
          (List.map Dex_check.error_to_string (Dex_check.check_method ok)))
  ]

let suite = suite @ literal_div_tests

(* ---- The one-pass parser held to the behaviour of the token-list parser
   it replaced --------------------------------------------------------- *)

open Calibro_workload

let md5 s = Digest.to_hex (Digest.string s)
let six_apps = lazy (List.map (fun p -> (Appgen.generate p).Appgen.app) Apps.all)

(* perfbench's serve-warm pool at seed 0: Kuaishou mutants 1..4 *)
let serve_mutants =
  lazy
    (let k = (Appgen.generate Apps.kuaishou).Appgen.app in
     List.init 4 (fun i -> fst (Mutate.mutate ~seed:(i + 1) k)))

(* The printed text is the request body; its digest is the app digest and
   the PGO key. These are the printer's bytes before it was rewritten. *)
let printed_md5 =
  [ ("Toutiao", "13ee77b9b998b83f2620651a38633b2f");
    ("Taobao", "721fee5e651c92f0ea29e2545da2a1f8");
    ("Fanqie", "982eaf73a2392b20406d115776a8c85c");
    ("Meituan", "d0088bae995b835b24e8c9fe28880192");
    ("Kuaishou", "1b64ebc7ef801425fe6ab46c6ee467b9");
    ("Wechat", "c692f49f905b32da8f421ad0fe70998b");
    ("Kuaishou mutant 1", "3798e82a93f1fea6b446b98c4c726004");
    ("Kuaishou mutant 2", "dd728f42c30c7f6a106c4d1cb287c611");
    ("Kuaishou mutant 3", "360de4c99f73184a86d4b8f9e6c553bd");
    ("Kuaishou mutant 4", "e19c1038f0f15e5010090c83d0ec023d") ]

let pinned_apks () =
  List.combine
    (List.map fst printed_md5)
    (Lazy.force six_apps @ Lazy.force serve_mutants)

let round_trips what apk =
  match Dex_text.parse (Dex_text.to_string apk) with
  | Ok apk2 -> Alcotest.(check bool) (what ^ " reparses equal") true (apk = apk2)
  | Error e -> Alcotest.failf "%s: %s" what e

let hdr = ".apk x\n.dex d\n.class c\n.method m params #0 regs #2\n"
let body b = hdr ^ b ^ ".end\n"

(* One fault per input, with the token-list parser's answer for each. *)
let single_faults =
  [ (body "  const v0, #1\n  . \n  return\n", "line 6: stray '.'");
    (body "  :\n  return\n", "line 5: empty label after ':'");
    (body "  const v0, #0xZ\n  return\n", "line 5: bad integer literal #0x");
    (hdr ^ "  string v0, \"abc", "line 5: unterminated string");
    (body "  string v0, \"a\\q\"\n  return\n", "line 5: bad escape \\q");
    (body "  const v0, #1 @\n  return\n", "line 5: unexpected character '@'");
    (hdr ^ "  const v0,", "line 5: unexpected end of input");
    (body "  move v0, #1\n  return\n", "line 5: expected register, got #1");
    (body "  move v0 v1\n  return\n", "line 5: expected ,, got v1");
    (body "  const v0, v1\n  return\n", "line 5: expected integer, got v1");
    (".apk x\n.dex d\n.class #3\n", "line 3: expected identifier, got #3");
    (body "  goto v0\n", "line 5: expected label, got v0");
    (body "  string v0, #1\n  return\n", "line 5: expected string, got #1");
    (body "  invoke c.m v0\n  return\n", "line 5: expected (, got v0");
    ( body "  switch v0 (:a :b)\n:a\n:b\n  return\n",
      "line 5: expected ), got :b" );
    (".dex d\n", "line 1: expected .apk, got .dex");
    ( ".apk x\n.dex d\n.class c\n.method m regs #2\n.end\n",
      "line 4: expected params, got regs" );
    ( ".apk x\n.dex d\n.class c\n.method m params #0 #2\n.end\n",
      "line 4: expected regs, got #2" );
    ( body "  invoke foo ()\n  return\n",
      "line 5: method reference \"foo\" needs a class prefix" );
    ( body "  rtcall pNope ()\n  return\n",
      "line 5: unknown runtime function \"pNope\"" );
    (body ":a\n  if xx v0, v1, :a\n  return\n", "line 6: unknown comparison \"xx\"");
    ( body "  add v0, v1, :a\n  return\n",
      "line 5: expected register or literal, got :a" );
    (body "  bogus v0\n  return\n", "line 5: unknown mnemonic \"bogus\"");
    ( body "  #1\n  return\n",
      "line 5: expected instruction, label or .end, got #1" );
    (hdr ^ "  return\n", "line 5: .method without .end");
    (body ":l\n  const v0, #1\n:l\n  return\n", "line 7: duplicate label :l");
    (body "  goto :nowhere\n  return\n", "line 5: undefined label :nowhere");
    (".apk x\n.class c\n", "line 2: expected .dex, got .class") ]

(* Every instruction form, labels, escapes, comments and attributes. *)
let small_app =
  sample
  ^ {|.class com.demo.Extra ; comment
.method s params #1 regs #3 native entry
  switch v0 (:a, :b, :a) // another
:a
  string v1, "x\n\"y\\z\t"
  const v2, #0x1F
  div v2, v2, #-3
  invoke com.demo.Extra.s (v0) -> v1
  rtcall pLogValue (v1, v2) -> v2
  new com.demo.Obj, v1
  iget v1, v1, #8
  iput v1, v1, #16
  aget v1, v1, v2
  aput v1, v1, v2
  arraylen v1, v1
  if ge v0, v1, :b
  ifz ne v0, :a
  move v1, v0
:b
  return v1
.end
|}

let never_raises what src =
  match Dex_text.parse src with
  | Ok _ | Error _ -> ()
  | exception e ->
    Alcotest.failf "%s raised %s on %S" what (Printexc.to_string e) src

let one_pass_tests =
  [ Alcotest.test_case "out-of-range register is a typed error" `Quick
      (fun () ->
        Alcotest.(check (result reject string))
          "line 5"
          (Error "line 5: register v99999999999999999999999 out of range")
          (Dex_text.parse
             (body "  const v99999999999999999999999, #1\n")));
    Alcotest.test_case "printer bytes pinned: six apps, serve mutants" `Quick
      (fun () ->
        List.iter
          (fun (what, apk) ->
            Alcotest.(check string) what (List.assoc what printed_md5)
              (md5 (Dex_text.to_string apk)))
          (pinned_apks ()));
    Alcotest.test_case "parse (to_string a) = a: apps, mutants, train" `Slow
      (fun () ->
        List.iter (fun (what, apk) -> round_trips what apk) (pinned_apks ());
        let wechat = List.nth (Lazy.force six_apps) 5 in
        Train.fold ~ops_per_delta:2 ~deltas:25 ~seed:1 wechat ~init:()
          ~f:(fun () v ->
            round_trips (Printf.sprintf "Wechat v%d" v.Train.v_index)
              v.Train.v_apk));
    Alcotest.test_case "single-fault golden messages" `Quick (fun () ->
        List.iter
          (fun (src, want) ->
            Alcotest.(check (result reject string)) src (Error want)
              (Dex_text.parse src))
          single_faults);
    Alcotest.test_case "several faults: the first in file order" `Quick
      (fun () ->
        (* The token-list parser lexed the whole file first and so
           reported the bad literal on line 6. *)
        Alcotest.(check (result reject string))
          "syntax fault before lexical fault"
          (Error "line 5: unknown mnemonic \"bogus\"")
          (Dex_text.parse (body "  bogus v0\n  const v0, #zz\n"));
        Alcotest.(check (result reject string))
          "duplicate label before a later syntax fault"
          (Error "line 6: duplicate label :a")
          (Dex_text.parse (body ":a\n:a\n  bogus v0\n")));
    Alcotest.test_case "huge method and class count: no stack overflow"
      `Quick (fun () ->
        let b = Buffer.create (1 lsl 22) in
        Buffer.add_string b hdr;
        for i = 0 to 199_999 do
          Printf.bprintf b ":l%d\n  goto :l%d\n" i (199_999 - i)
        done;
        Buffer.add_string b "  return\n.end\n";
        (match Dex_text.parse (Buffer.contents b) with
         | Ok apk ->
           let m = List.hd (methods_of_apk apk) in
           Alcotest.(check int) "insns" 200_001 (Array.length m.insns);
           Alcotest.(check bool) "first goto" true (m.insns.(0) = Goto 199_999)
         | Error e -> Alcotest.fail e);
        Buffer.clear b;
        Buffer.add_string b ".apk x\n.dex d\n";
        for i = 0 to 49_999 do
          Printf.bprintf b ".class c%d\n.method m params #0 regs #1\n  return\n.end\n" i
        done;
        match Dex_text.parse (Buffer.contents b) with
        | Ok apk -> Alcotest.(check int) "methods" 50_000 (method_count apk); round_trips "50k classes" apk
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "every prefix and byte deletion answers typed" `Quick
      (fun () ->
        round_trips "small app" (parse_ok small_app);
        let n = String.length small_app in
        for i = 0 to n do
          never_raises "prefix" (String.sub small_app 0 i)
        done;
        for i = 0 to n - 1 do
          never_raises "deletion"
            (String.sub small_app 0 i ^ String.sub small_app (i + 1) (n - i - 1))
        done) ]

let suite = suite @ one_pass_tests
