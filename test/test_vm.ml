(* End-to-end substrate tests: .dexsim source -> HGraph -> optimize ->
   codegen -> link -> execute in the simulator. Every program runs twice,
   with CTO off and on, and must behave identically — the first of the
   differential correctness oracles. *)

open Calibro_dex
open Calibro_hgraph
open Calibro_codegen
open Calibro_oat
open Calibro_vm

let compile_apk ?(cto = false) ?(optimize = true) (apk : Dex_ir.apk) =
  let methods = Dex_ir.methods_of_apk apk in
  let slots = Hashtbl.create 16 in
  List.iteri (fun i (m : Dex_ir.meth) -> Hashtbl.replace slots m.name i) methods;
  let slot_of_method name =
    match Hashtbl.find_opt slots name with
    | Some s -> s
    | None -> failwith ("unknown method " ^ Dex_ir.method_ref_to_string name)
  in
  let compiled =
    List.map
      (fun m ->
        let g = Hgraph.of_method m in
        if optimize then ignore (Passes.optimize g);
        Codegen.compile ~config:{ Codegen.cto } ~slot_of_method g)
      methods
  in
  Linker.link ~apk_name:apk.Dex_ir.apk_name
    ~thunks:(if cto then Abi.all_thunks else [])
    compiled

let parse src =
  match Dex_text.parse src with
  | Ok apk -> (
    match Dex_check.check apk with
    | Ok () -> apk
    | Error errs ->
      Alcotest.failf "check: %s"
        (String.concat "; " (List.map Dex_check.error_to_string errs)))
  | Error e -> Alcotest.failf "parse: %s" e

let run_apk ?cto ?optimize src entry args =
  let apk = parse src in
  let oat = compile_apk ?cto ?optimize apk in
  let t = Interp.load oat in
  let outcome = Interp.call t { class_name = "t"; method_name = entry } args in
  (outcome, Interp.log t)

let outcome_str = function
  | Interp.Returned v -> Printf.sprintf "Returned %d" v
  | Interp.Thrown fn -> "Thrown " ^ Dex_ir.runtime_fn_name fn
  | Interp.Fault m -> "Fault " ^ m

let check_outcome name expected (got, log_got) ~log =
  Alcotest.(check string) (name ^ " outcome") (outcome_str expected) (outcome_str got);
  Alcotest.(check (list int)) (name ^ " log") log log_got

(* Run with all four configs and require identical behaviour. *)
let check_all_configs name src entry args expected ~log =
  List.iter
    (fun (cto, optimize) ->
      let tag = Printf.sprintf "%s cto=%b opt=%b" name cto optimize in
      check_outcome tag expected (run_apk ~cto ~optimize src entry args) ~log)
    [ (false, false); (false, true); (true, false); (true, true) ]

let header = ".apk t\n.dex d\n.class t\n"

let suite =
  [ Alcotest.test_case "constant return" `Quick (fun () ->
        let src = header ^ ".method f params #0 regs #1 entry\n  const v0, #42\n  return v0\n.end\n" in
        check_all_configs "const" src "f" [] (Interp.Returned 42) ~log:[]);
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        let src =
          header
          ^ {|.method f params #2 regs #6 entry
  add v2, v0, v1
  mul v3, v2, v2
  sub v4, v3, v0
  div v5, v4, v1
  rem v5, v5, v3
  return v5
.end
|}
        in
        (* v0=7 v1=3: v2=10 v3=100 v4=93 v5=31 rem 100 -> 31 *)
        check_all_configs "arith" src "f" [ 7; 3 ] (Interp.Returned 31) ~log:[]);
    Alcotest.test_case "negative constants" `Quick (fun () ->
        let src =
          header
          ^ ".method f params #0 regs #2 entry\n  const v0, #-123456789\n  const v1, #-1\n  mul v0, v0, v1\n  return v0\n.end\n"
        in
        check_all_configs "neg" src "f" [] (Interp.Returned 123456789) ~log:[]);
    Alcotest.test_case "branches and loop" `Quick (fun () ->
        (* sum 1..n *)
        let src =
          header
          ^ {|.method f params #1 regs #4 entry
  const v1, #0
  const v2, #1
:loop
  if gt v2, v0, :done
  add v1, v1, v2
  add v2, v2, #1
  goto :loop
:done
  return v1
.end
|}
        in
        check_all_configs "sum" src "f" [ 10 ] (Interp.Returned 55) ~log:[]);
    Alcotest.test_case "java calls pass arguments and return" `Quick
      (fun () ->
        let src =
          header
          ^ {|.method helper params #2 regs #3
  mul v2, v0, v1
  return v2
.end
.method f params #2 regs #4 entry
  invoke t.helper (v0, v1) -> v2
  add v2, v2, #1
  return v2
.end
|}
        in
        check_all_configs "call" src "f" [ 6; 7 ] (Interp.Returned 43) ~log:[]);
    Alcotest.test_case "recursion (factorial)" `Quick (fun () ->
        let src =
          header
          ^ {|.method fact params #1 regs #4 entry
  ifz ne v0, :rec
  const v1, #1
  return v1
:rec
  sub v1, v0, #1
  invoke t.fact (v1) -> v2
  mul v3, v0, v2
  return v3
.end
|}
        in
        check_all_configs "fact" src "fact" [ 10 ] (Interp.Returned 3628800)
          ~log:[]);
    Alcotest.test_case "runtime log output" `Quick (fun () ->
        let src =
          header
          ^ {|.method f params #1 regs #3 entry
  rtcall pLogValue (v0)
  add v1, v0, #1
  rtcall pLogValue (v1)
  return v1
.end
|}
        in
        check_all_configs "log" src "f" [ 5 ] (Interp.Returned 6) ~log:[ 5; 6 ]);
    Alcotest.test_case "objects: new/iput/iget" `Quick (fun () ->
        let src =
          header
          ^ {|.method f params #1 regs #4 entry
  new t.Box, v1
  iput v0, v1, #16
  iget v2, v1, #16
  add v2, v2, v2
  return v2
.end
|}
        in
        check_all_configs "obj" src "f" [ 21 ] (Interp.Returned 42) ~log:[]);
    Alcotest.test_case "arrays: alloc/aput/aget/len" `Quick (fun () ->
        let src =
          header
          ^ {|.method f params #1 regs #8 entry
  rtcall pAllocArrayResolved (v0) -> v1
  const v2, #0
:fill
  if ge v2, v0, :done
  mul v3, v2, v2
  aput v3, v1, v2
  add v2, v2, #1
  goto :fill
:done
  arraylen v4, v1
  sub v5, v4, #1
  aget v6, v1, v5
  add v7, v4, v6
  return v7
.end
|}
        in
        (* n=5: len 5, last element 16, result 21 *)
        check_all_configs "array" src "f" [ 5 ] (Interp.Returned 21) ~log:[]);
    Alcotest.test_case "null pointer throw" `Quick (fun () ->
        let src =
          header
          ^ ".method f params #0 regs #2 entry\n  const v0, #0\n  iget v1, v0, #8\n  return v1\n.end\n"
        in
        check_all_configs "null" src "f" []
          (Interp.Thrown Dex_ir.Throw_null_pointer) ~log:[]);
    Alcotest.test_case "bounds throw" `Quick (fun () ->
        let src =
          header
          ^ {|.method f params #1 regs #4 entry
  const v1, #3
  rtcall pAllocArrayResolved (v1) -> v2
  aget v3, v2, v0
  return v3
.end
|}
        in
        check_all_configs "bounds" src "f" [ 5 ]
          (Interp.Thrown Dex_ir.Throw_array_bounds) ~log:[];
        (* negative index also trips the unsigned comparison *)
        check_all_configs "bounds-neg" src "f" [ -1 ]
          (Interp.Thrown Dex_ir.Throw_array_bounds) ~log:[]);
    Alcotest.test_case "div-zero throw" `Quick (fun () ->
        let src =
          header
          ^ ".method f params #2 regs #3 entry\n  div v2, v0, v1\n  return v2\n.end\n"
        in
        check_all_configs "divz" src "f" [ 5; 0 ]
          (Interp.Thrown Dex_ir.Throw_div_zero) ~log:[];
        check_all_configs "div ok" src "f" [ 12; 4 ] (Interp.Returned 3)
          ~log:[]);
    Alcotest.test_case "stack overflow on runaway recursion" `Quick (fun () ->
        let src =
          header
          ^ {|.method f params #1 regs #2 entry
  add v1, v0, #1
  invoke t.f (v1) -> v1
  return v1
.end
|}
        in
        check_all_configs "so" src "f" [ 0 ]
          (Interp.Thrown Dex_ir.Throw_stack_overflow) ~log:[]);
    Alcotest.test_case "switch dispatch" `Quick (fun () ->
        let src =
          header
          ^ {|.method f params #1 regs #3 entry
  switch v0 (:a, :b, :c)
  const v1, #-1
  return v1
:a
  const v1, #10
  return v1
:b
  const v1, #20
  return v1
:c
  const v1, #30
  return v1
.end
|}
        in
        check_all_configs "sw0" src "f" [ 0 ] (Interp.Returned 10) ~log:[];
        check_all_configs "sw1" src "f" [ 1 ] (Interp.Returned 20) ~log:[];
        check_all_configs "sw2" src "f" [ 2 ] (Interp.Returned 30) ~log:[];
        check_all_configs "sw-def" src "f" [ 7 ] (Interp.Returned (-1)) ~log:[];
        check_all_configs "sw-neg" src "f" [ -3 ] (Interp.Returned (-1)) ~log:[]);
    Alcotest.test_case "strings load and resolve" `Quick (fun () ->
        let src =
          header
          ^ {|.method f params #0 regs #2 entry
  string v0, "hello"
  rtcall pResolveString (v0) -> v1
  arraylen v1, v1   ; string pool entry starts with its length word
  return v1
.end
|}
        in
        (* arraylen reads the 64-bit word at the address: low 32 bits are
           the length, high bits are the first characters; mask in dex *)
        let apk = parse src in
        let oat = compile_apk apk in
        let t = Interp.load oat in
        (match Interp.call t { class_name = "t"; method_name = "f" } [] with
         | Interp.Returned _ -> ()
         | o -> Alcotest.failf "unexpected %s" (outcome_str o));
        ());
    Alcotest.test_case "native method dispatch" `Quick (fun () ->
        let src =
          header
          ^ ".method nat params #2 regs #2 native\n.end\n"
          ^ ".method f params #2 regs #3 entry\n  invoke t.nat (v0, v1) -> v2\n  return v2\n.end\n"
        in
        let apk = parse src in
        let oat = compile_apk apk in
        let t = Interp.load oat in
        Interp.register_native t
          { class_name = "t"; method_name = "nat" }
          (fun m ->
            Machine.set_reg m 0 (Machine.get_reg m 1 * Machine.get_reg m 2));
        (match Interp.call t { class_name = "t"; method_name = "f" } [ 6; 9 ] with
         | Interp.Returned 54 -> ()
         | o -> Alcotest.failf "unexpected %s" (outcome_str o)));
    Alcotest.test_case "cto reduces code size, same behaviour" `Quick
      (fun () ->
        let src =
          header
          ^ {|.method w params #1 regs #3 entry
  rtcall pLogValue (v0)
  invoke t.g (v0) -> v1
  rtcall pLogValue (v1)
  return v1
.end
.method g params #1 regs #2
  add v1, v0, #100
  return v1
.end
|}
        in
        let apk = parse src in
        let base = compile_apk ~cto:false apk in
        let cto = compile_apk ~cto:true apk in
        let base_methods_size =
          List.fold_left (fun a (m : Oat_file.method_entry) -> a + m.me_size)
            0 base.Oat_file.methods
        in
        let cto_methods_size =
          List.fold_left (fun a (m : Oat_file.method_entry) -> a + m.me_size)
            0 cto.Oat_file.methods
        in
        Alcotest.(check bool)
          (Printf.sprintf "method bytes shrink (%d -> %d)" base_methods_size
             cto_methods_size)
          true
          (cto_methods_size < base_methods_size));
    Alcotest.test_case "stackmaps validate" `Quick (fun () ->
        let src =
          header
          ^ ".method f params #1 regs #3 entry\n  invoke t.g (v0) -> v1\n  rtcall pLogValue (v1)\n  return v1\n.end\n"
          ^ ".method g params #1 regs #2\n  add v1, v0, #1\n  return v1\n.end\n"
        in
        let apk = parse src in
        let oat = compile_apk apk in
        List.iter
          (fun (me : Oat_file.method_entry) ->
            match Stackmap.validate me.me_stackmap ~code_size:me.me_size with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s" e)
          oat.Oat_file.methods);
    Alcotest.test_case "oat file save/load round trip" `Quick (fun () ->
        let src = header ^ ".method f params #0 regs #1 entry\n  const v0, #7\n  return v0\n.end\n" in
        let oat = compile_apk (parse src) in
        let buf = Oat_file.to_bytes oat in
        match Oat_file.of_bytes buf with
        | Error e -> Alcotest.fail e
        | Ok oat2 ->
          Alcotest.(check bytes) "text" oat.Oat_file.text oat2.Oat_file.text;
          Alcotest.(check int) "methods"
            (List.length oat.Oat_file.methods)
            (List.length oat2.Oat_file.methods);
          let t = Interp.load oat2 in
          (match Interp.call t { class_name = "t"; method_name = "f" } [] with
           | Interp.Returned 7 -> ()
           | o -> Alcotest.failf "unexpected %s" (outcome_str o)))
  ]

(* ---- Last-page and last-line reuse ------------------------------------

   [Machine.page], [Machine.touch_exec] and [Cost.on_fetch] reuse the page
   or line of the previous access. Accesses that alternate between two
   pages (and a word that straddles them) must read back what a plain
   byte map holds, and cost what they cost before the reuse. *)

let alternating_pages_tests =
  [ Alcotest.test_case "memory: alternating pages, page-crossing words" `Quick
      (fun () ->
        let m = Machine.create () in
        let bytes = Hashtbl.create 64 in
        let byte a = Option.value ~default:0 (Hashtbl.find_opt bytes a) in
        let write a v =
          Machine.write64 m a v;
          for b = 0 to 7 do
            Hashtbl.replace bytes (a + b) ((v lsr (8 * b)) land 0xff)
          done
        in
        let expect a =
          let v = ref 0 in
          for b = 7 downto 0 do v := (!v lsl 8) lor byte (a + b) done;
          !v
        in
        let p = Machine.page_size and base = Abi.heap_base in
        (* page 0, page 1, back and forth, then words across the seam *)
        let addrs =
          [ base + 8; base + p + 16; base + 24; base + p + 32; base + p - 3;
            base + 8; base + p - 8; base + p; base + (2 * p) - 5; base + 40 ]
        in
        List.iteri
          (fun i a ->
            write a ((i + 1) * 0x10203040506);
            List.iter
              (fun a' ->
                Alcotest.(check int) (Printf.sprintf "read64 %#x" a')
                  (expect a') (Machine.read64 m a');
                Alcotest.(check int) (Printf.sprintf "read32 %#x" a')
                  (expect a' land 0xFFFFFFFF) (Machine.read32 m a'))
              (List.filteri (fun j _ -> j <= i) addrs))
          addrs;
        Alcotest.(check int) "read32 across the seam"
          (expect (base + p - 2) land 0xFFFFFFFF)
          (Machine.read32 m (base + p - 2));
        Alcotest.(check int) "data pages" 3
          (Machine.touched_data_pages_in m ~lo:base ~hi:(base + (3 * p)));
        List.iter (Machine.touch_exec m)
          [ base; base + p; base + 4; base + p + 4; base + (2 * p) - 4; base ];
        Alcotest.(check int) "exec pages" 2
          (Machine.touched_exec_page_count m));
    Alcotest.test_case "i-cache: alternating lines miss once each" `Quick
      (fun () ->
        let c = Cost.create ~n_regions:1 () in
        let pcs = [ 0; 64; 0; 64; 4; 68; 60; 64; 128; 0; 0; 132 ] in
        List.iter
          (fun pc ->
            Cost.on_fetch c ~region:0 ~pc Calibro_aarch64.Isa.Nop ~taken:false)
          pcs;
        let p = Cost.default in
        Alcotest.(check int) "instructions" (List.length pcs)
          c.Cost.instructions;
        Alcotest.(check int) "cycles: one miss per distinct line"
          ((List.length pcs * p.Cost.base) + (3 * p.Cost.icache_miss))
          c.Cost.cycles);
    Alcotest.test_case "arrays across pages: values and cycles" `Quick
      (fun () ->
        (* two 600-element halves 4,800 bytes apart: every aput and aget
           switches page *)
        let src =
          header
          ^ {|.method f params #0 regs #8 entry
  const v0, #1200
  rtcall pAllocArrayResolved (v0) -> v1
  const v2, #0
:fill
  const v7, #600
  if ge v2, v7, :sum
  mul v3, v2, #3
  aput v3, v1, v2
  add v4, v2, #600
  add v5, v3, #1
  aput v5, v1, v4
  add v2, v2, #1
  goto :fill
:sum
  const v2, #0
  const v6, #0
:loop
  if ge v2, v7, :done
  aget v3, v1, v2
  add v4, v2, #600
  aget v5, v1, v4
  add v6, v6, v3
  add v6, v6, v5
  add v2, v2, #1
  goto :loop
:done
  return v6
.end
|}
        in
        let oat = compile_apk ~cto:true (parse src) in
        let t = Interp.load oat in
        (match Interp.call t { class_name = "t"; method_name = "f" } [] with
         | Interp.Returned v ->
           (* sum of 3i and 3i+1 over i < 600 *)
           Alcotest.(check int) "value" ((6 * (599 * 600 / 2)) + 600) v
         | o -> Alcotest.failf "unexpected %s" (outcome_str o));
        (* as counted before the last-page and last-line reuse *)
        Alcotest.(check int) "instructions" 41431
          (Interp.instructions_retired t);
        Alcotest.(check int) "cycles" 66148 (Interp.cycles t)) ]

let suite = suite @ alternating_pages_tests
