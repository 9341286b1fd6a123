(* The HGraph-style IR: the per-method CFG DEX2OAT optimizes before code
   generation (paper Figure 5: method -> HGraph -> opt passes -> binary).

   Unlike the flat DEX bytecode, HGraph makes runtime checks explicit
   (null/bounds/div-zero), which is what lets the code generator emit them
   as slowpath calls at the end of the method — the "slowpath" code the
   paper marks as always outlinable (section 3.2). *)

open Calibro_dex.Dex_ir

type block_id = int

type hinsn =
  | HConst of vreg * int
  | HMove of vreg * vreg
  | HBinop of binop * vreg * vreg * vreg
  | HBinop_lit of binop * vreg * vreg * int
  | HInvoke of method_ref * vreg list * vreg option
  | HInvoke_runtime of runtime_fn * vreg list * vreg option
  | HNew_instance of string * vreg
  | HNull_check of vreg
  | HBounds_check of vreg * vreg  (** index, array *)
  | HDiv_zero_check of vreg
  | HIget of vreg * vreg * int
  | HIput of vreg * vreg * int
  | HAget of vreg * vreg * vreg
  | HAput of vreg * vreg * vreg
  | HArray_len of vreg * vreg
  | HConst_string of vreg * string

type terminator =
  | TIf of cmp * vreg * vreg * block_id * block_id  (** taken, fallthrough *)
  | TIfz of cmp * vreg * block_id * block_id
  | TGoto of block_id
  | TSwitch of vreg * block_id list * block_id  (** cases, default *)
  | TReturn of vreg option

type block = {
  bid : block_id;
  mutable insns : hinsn list;
  mutable term : terminator;
}

type t = {
  g_name : method_ref;
  g_num_params : int;
  g_num_vregs : int;
  g_is_native : bool;
  g_is_entry : bool;
  mutable blocks : block array;  (** blocks.(0) is the entry *)
}

let iter_successors f = function
  | TIf (_, _, _, a, b) | TIfz (_, _, a, b) -> f a; f b
  | TGoto a -> f a
  | TSwitch (_, cases, default) -> List.iter f cases; f default
  | TReturn _ -> ()

let map_successors f = function
  | TIf (c, a, b, t1, t2) -> TIf (c, a, b, f t1, f t2)
  | TIfz (c, a, t1, t2) -> TIfz (c, a, f t1, f t2)
  | TGoto t -> TGoto (f t)
  | TSwitch (v, cases, d) -> TSwitch (v, List.map f cases, f d)
  | TReturn r -> TReturn r

(* The registers an instruction names: the ones it reads, in operand
   order, then the one it writes. *)
let[@inline] iter_regs f = function
  | HConst (d, _) | HConst_string (d, _) | HNew_instance (_, d) -> f d
  | HMove (d, a) | HBinop_lit (_, d, a, _) | HIget (d, a, _)
  | HArray_len (d, a) -> f a; f d
  | HBinop (_, d, a, b) | HAget (d, a, b) -> f a; f b; f d
  | HNull_check a | HDiv_zero_check a -> f a
  | HBounds_check (a, b) | HIput (a, b, _) -> f a; f b
  | HAput (v, a, i) -> f v; f a; f i
  | HInvoke (_, args, res) | HInvoke_runtime (_, args, res) ->
    List.iter f args;
    Option.iter f res

(* Can the instruction be removed if its result is unused? *)
let insn_is_pure = function
  | HConst _ | HMove _ | HBinop ((Add | Sub | Mul | And | Or | Xor), _, _, _)
  | HBinop_lit ((Add | Sub | Mul | And | Or | Xor), _, _, _)
  | HArray_len _ | HConst_string _ -> true
  | HBinop ((Div | Rem), _, _, _) | HBinop_lit ((Div | Rem), _, _, _) ->
    false (* may trap; a DivZeroCheck precedes but keep conservative *)
  | HInvoke _ | HInvoke_runtime _ | HNew_instance _ | HNull_check _
  | HBounds_check _ | HDiv_zero_check _ | HIget _ | HIput _ | HAget _
  | HAput _ -> false

let iter_term_uses f = function
  | TIf (_, a, b, _, _) -> f a; f b
  | TIfz (_, a, _, _) | TSwitch (a, _, _) | TReturn (Some a) -> f a
  | TGoto _ | TReturn None -> ()

(* ---- Builder: DEX bytecode -> HGraph --------------------------------- *)

(* The block each instruction index starts, numbered in order, or -1 for
   an index inside a block; [insns] is not empty. *)
let leaders (insns : insn array) =
  let n = Array.length insns in
  let block = Array.make n (-1) in
  let mark i = if i < n then block.(i) <- 0 in
  mark 0;
  Array.iteri
    (fun i insn ->
      List.iter mark (targets insn);
      if is_block_end insn then mark (i + 1))
    insns;
  let next = ref 0 in
  Array.iteri
    (fun i b ->
      if b = 0 then begin
        block.(i) <- !next;
        incr next
      end)
    block;
  block

let of_method (m : meth) : t =
  let n = Array.length m.insns in
  let g =
    { g_name = m.name; g_num_params = m.num_params; g_num_vregs = m.num_vregs;
      g_is_native = m.is_native; g_is_entry = m.is_entry; blocks = [||] }
  in
  if m.is_native || n = 0 then g
  else begin
    let block_of_index = leaders m.insns in
    let block_id_of_index idx =
      if idx >= 0 && idx < n && block_of_index.(idx) >= 0 then
        block_of_index.(idx)
      else invalid_arg "Hgraph.of_method: branch into block middle"
    in
    let bounds =
      (* (start, end exclusive) of each block *)
      let bounds = ref [] and stop = ref n in
      for i = n - 1 downto 0 do
        if block_of_index.(i) >= 0 then begin
          bounds := (i, !stop) :: !bounds;
          stop := i
        end
      done;
      !bounds
    in
    let blocks =
      List.mapi
        (fun bi (start, stop) ->
          let insns = ref [] in
          let term = ref None in
          for i = start to stop - 1 do
            let emit hi = insns := hi :: !insns in
            match m.insns.(i) with
            | Const (d, v) -> emit (HConst (d, v))
            | Move (d, a) -> emit (HMove (d, a))
            | Binop (op, d, a, b) ->
              if op = Div || op = Rem then emit (HDiv_zero_check b);
              emit (HBinop (op, d, a, b))
            | Binop_lit (op, d, a, v) ->
              (* literal divisor of zero is a checker-level degenerate; emit
                 the check only for the register form *)
              emit (HBinop_lit (op, d, a, v))
            | Invoke (callee, args, res) ->
              (* Calls are static-style: arguments are plain values, so no
                 receiver null check (field/array accesses get theirs). *)
              emit (HInvoke (callee, args, res))
            | Invoke_runtime (fn, args, res) ->
              emit (HInvoke_runtime (fn, args, res))
            | New_instance (cls, d) -> emit (HNew_instance (cls, d))
            | Iget (d, o, off) ->
              emit (HNull_check o);
              emit (HIget (d, o, off))
            | Iput (v, o, off) ->
              emit (HNull_check o);
              emit (HIput (v, o, off))
            | Aget (d, a, ix) ->
              emit (HNull_check a);
              emit (HBounds_check (ix, a));
              emit (HAget (d, a, ix))
            | Aput (v, a, ix) ->
              emit (HNull_check a);
              emit (HBounds_check (ix, a));
              emit (HAput (v, a, ix))
            | Array_len (d, a) ->
              emit (HNull_check a);
              emit (HArray_len (d, a))
            | Const_string (d, s) -> emit (HConst_string (d, s))
            | If (c, a, b, l) ->
              term := Some (TIf (c, a, b, block_id_of_index l,
                                 block_id_of_index (i + 1)))
            | Ifz (c, a, l) ->
              term := Some (TIfz (c, a, block_id_of_index l,
                                  block_id_of_index (i + 1)))
            | Goto l -> term := Some (TGoto (block_id_of_index l))
            | Switch (v, ls) ->
              term :=
                Some
                  (TSwitch (v, List.map block_id_of_index ls,
                            block_id_of_index (i + 1)))
            | Return r -> term := Some (TReturn r)
          done;
          let term =
            match !term with
            | Some t -> t
            | None -> TGoto (block_id_of_index stop) (* fallthrough *)
          in
          { bid = bi; insns = List.rev !insns; term })
        bounds
    in
    g.blocks <- Array.of_list blocks;
    g
  end

(* ---- Verification ----------------------------------------------------- *)

exception Invalid of string

let verify (g : t) =
  let nb = Array.length g.blocks in
  Array.iteri
    (fun i b ->
      if b.bid <> i then
        raise (Invalid (Printf.sprintf "block %d has bid %d" i b.bid));
      iter_successors
        (fun s ->
          if s < 0 || s >= nb then
            raise
              (Invalid
                 (Printf.sprintf "block %d: successor %d out of range" i s)))
        b.term;
      let check_reg r =
        if r < 0 || r >= g.g_num_vregs then
          raise (Invalid (Printf.sprintf "block %d: vreg v%d out of range" i r))
      in
      List.iter (fun insn -> iter_regs check_reg insn) b.insns;
      iter_term_uses check_reg b.term)
    g.blocks

(* Blocks reachable from the entry. *)
let reachable (g : t) =
  let nb = Array.length g.blocks in
  let seen = Array.make nb false in
  let rec go b =
    if not seen.(b) then begin
      seen.(b) <- true;
      iter_successors go g.blocks.(b).term
    end
  in
  if nb > 0 then go 0;
  seen

(* Total instruction count (excluding terminators). *)
let size (g : t) =
  Array.fold_left (fun acc b -> acc + List.length b.insns) 0 g.blocks

(* ---- Pretty printing (debugging aid) ---------------------------------- *)

let insn_to_string insn =
  let reg r = Printf.sprintf "v%d" r in
  let regs rs = String.concat ", " (List.map reg rs) in
  match insn with
  | HConst (d, v) -> Printf.sprintf "%s <- const %d" (reg d) v
  | HMove (d, a) -> Printf.sprintf "%s <- %s" (reg d) (reg a)
  | HBinop (op, d, a, b) ->
    Printf.sprintf "%s <- %s %s, %s" (reg d) (binop_name op) (reg a) (reg b)
  | HBinop_lit (op, d, a, v) ->
    Printf.sprintf "%s <- %s %s, #%d" (reg d) (binop_name op) (reg a) v
  | HInvoke (m, args, res) ->
    Printf.sprintf "%sinvoke %s(%s)"
      (match res with Some r -> reg r ^ " <- " | None -> "")
      (method_ref_to_string m) (regs args)
  | HInvoke_runtime (f, args, res) ->
    Printf.sprintf "%srtcall %s(%s)"
      (match res with Some r -> reg r ^ " <- " | None -> "")
      (runtime_fn_name f) (regs args)
  | HNew_instance (cls, d) -> Printf.sprintf "%s <- new %s" (reg d) cls
  | HNull_check a -> Printf.sprintf "null_check %s" (reg a)
  | HBounds_check (i, a) -> Printf.sprintf "bounds_check %s, %s" (reg i) (reg a)
  | HDiv_zero_check a -> Printf.sprintf "div_zero_check %s" (reg a)
  | HIget (d, o, off) -> Printf.sprintf "%s <- iget %s[%d]" (reg d) (reg o) off
  | HIput (v, o, off) -> Printf.sprintf "iput %s[%d] <- %s" (reg o) off (reg v)
  | HAget (d, a, i) -> Printf.sprintf "%s <- aget %s[%s]" (reg d) (reg a) (reg i)
  | HAput (v, a, i) -> Printf.sprintf "aput %s[%s] <- %s" (reg a) (reg i) (reg v)
  | HArray_len (d, a) -> Printf.sprintf "%s <- len %s" (reg d) (reg a)
  | HConst_string (d, s) -> Printf.sprintf "%s <- string %S" (reg d) s

let term_to_string term =
  let reg r = Printf.sprintf "v%d" r in
  match term with
  | TIf (c, a, b, t, f) ->
    Printf.sprintf "if %s %s, %s -> B%d else B%d" (cmp_name c) (reg a) (reg b) t f
  | TIfz (c, a, t, f) ->
    Printf.sprintf "ifz %s %s -> B%d else B%d" (cmp_name c) (reg a) t f
  | TGoto t -> Printf.sprintf "goto B%d" t
  | TSwitch (v, cases, d) ->
    Printf.sprintf "switch %s [%s] default B%d" (reg v)
      (String.concat "; " (List.map (Printf.sprintf "B%d") cases)) d
  | TReturn None -> "return"
  | TReturn (Some r) -> Printf.sprintf "return %s" (reg r)

let to_string (g : t) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "graph %s (params %d, regs %d)\n"
       (method_ref_to_string g.g_name) g.g_num_params g.g_num_vregs);
  Array.iter
    (fun blk ->
      Buffer.add_string b (Printf.sprintf "B%d:\n" blk.bid);
      List.iter
        (fun i -> Buffer.add_string b ("  " ^ insn_to_string i ^ "\n"))
        blk.insns;
      Buffer.add_string b ("  " ^ term_to_string blk.term ^ "\n"))
    g.blocks;
  Buffer.contents b
