(* Well-formedness checks for DEX-like input. Run before compilation; the
   code generator assumes these invariants. *)

open Dex_ir

type error = { where : string; what : string }

let error_to_string { where; what } = where ^ ": " ^ what

(* The prologue allocates the frame with one [sub sp, sp, #frame], whose
   12-bit immediate holds at most 4095; [Abi.frame_size] is 4080 bytes
   for 508 vregs and 4096 for 509. *)
let max_vregs = 508

let check_method (m : meth) =
  let errors = ref [] in
  let err fmt =
    Fmt.kstr
      (fun what ->
        errors := { where = method_ref_to_string m.name; what } :: !errors)
      fmt
  in
  let n = Array.length m.insns in
  if m.num_params > m.num_vregs then
    err "num_params %d exceeds num_vregs %d" m.num_params m.num_vregs;
  if m.num_vregs < 0 || m.num_params < 0 then err "negative register counts";
  if m.num_vregs > max_vregs then
    err "num_vregs %d exceeds %d (the frame would not fit the prologue)"
      m.num_vregs max_vregs;
  if n = 0 && not m.is_native then err "non-native method with empty body";
  if m.is_native && n > 0 then err "native method with a body";
  let check_reg what r =
    if r < 0 || r >= m.num_vregs then
      err "%s register v%d out of range (regs %d)" what r m.num_vregs
  in
  let check_label l =
    if l < 0 || l >= n then err "branch target %d out of range (%d insns)" l n
  in
  Array.iteri
    (fun i insn ->
      (match insn with
       | Const (d, _) -> check_reg "dst" d
       | Move (d, a) -> check_reg "dst" d; check_reg "src" a
       | Binop (_, d, a, b) ->
         check_reg "dst" d; check_reg "lhs" a; check_reg "rhs" b
       | Binop_lit (op, d, a, v) ->
         check_reg "dst" d; check_reg "lhs" a;
         (* the literal form carries no runtime zero check (the code
            generator folds the divisor), so a zero literal is a
            compile-time error *)
         if (op = Div || op = Rem) && v = 0 then
           err "literal division by zero"
       | Invoke (_, args, res) | Invoke_runtime (_, args, res) ->
         List.iter (check_reg "arg") args;
         Option.iter (check_reg "result") res;
         if List.length args > 7 then err "more than 7 call arguments"
       | New_instance (_, d) -> check_reg "dst" d
       | Iget (d, o, off) ->
         check_reg "dst" d; check_reg "object" o;
         if off < 0 || off > 4096 || off mod 8 <> 0 then
           err "iget field offset %d invalid (8-byte aligned, < 4096)" off
       | Iput (v, o, off) ->
         check_reg "src" v; check_reg "object" o;
         if off < 0 || off > 4096 || off mod 8 <> 0 then
           err "iput field offset %d invalid" off
       | Aget (d, a, ix) ->
         check_reg "dst" d; check_reg "array" a; check_reg "index" ix
       | Aput (v, a, ix) ->
         check_reg "src" v; check_reg "array" a; check_reg "index" ix
       | Array_len (d, a) -> check_reg "dst" d; check_reg "array" a
       | If (_, a, b, l) -> check_reg "lhs" a; check_reg "rhs" b; check_label l
       | Ifz (_, a, l) -> check_reg "operand" a; check_label l
       | Goto l -> check_label l
       | Switch (v, ls) ->
         check_reg "selector" v;
         if ls = [] then err "switch with no targets";
         List.iter check_label ls
       | Const_string (d, _) -> check_reg "dst" d
       | Return r -> Option.iter (check_reg "result") r);
      (* The final instruction must not fall off the end. *)
      if i = n - 1 && falls_through insn then
        err "control falls off the end of the method")
    m.insns;
  List.rev !errors

(* Check call graph consistency: every Invoke target must exist in the apk
   and be passed the right number of arguments. *)
let check_calls (apk : apk) =
  let methods = methods_of_apk apk in
  let table = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace table m.name m) methods;
  let errors = ref [] in
  List.iter
    (fun (m : meth) ->
      Array.iter
        (fun insn ->
          match insn with
          | Invoke (callee, args, _) -> (
            match Hashtbl.find_opt table callee with
            | None ->
              errors :=
                { where = method_ref_to_string m.name;
                  what = "call to undefined method " ^ method_ref_to_string callee }
                :: !errors
            | Some target ->
              if List.length args <> target.num_params then
                errors :=
                  { where = method_ref_to_string m.name;
                    what =
                      Printf.sprintf "call to %s passes %d args, expects %d"
                        (method_ref_to_string callee) (List.length args)
                        target.num_params }
                  :: !errors)
          | _ -> ())
        m.insns)
    methods;
  List.rev !errors

let check_apk (apk : apk) =
  let dup_errors =
    let seen = Hashtbl.create 64 in
    List.filter_map
      (fun (m : meth) ->
        let key = method_ref_to_string m.name in
        if Hashtbl.mem seen key then
          Some { where = key; what = "duplicate method definition" }
        else begin
          Hashtbl.replace seen key ();
          None
        end)
      (methods_of_apk apk)
  in
  dup_errors
  @ List.concat_map check_method (methods_of_apk apk)
  @ check_calls apk

let check apk = match check_apk apk with [] -> Ok () | errs -> Error errs
