(* Template-driven code generation: HGraph -> AArch64 binary, the moral
   equivalent of DEX2OAT's backend (paper section 3.1: "the code generation
   work traverses each IR instruction and generates corresponding binary
   code based on instruction templates").

   Two Calibro hooks live here:
   - CTO (section 3.1): when [config.cto] is set, the three ART-specific
     repetitive patterns are emitted as one [bl <thunk>] instead of their
     multi-instruction template;
   - LTBO.1 (section 3.2): metadata about embedded data, PC-relative
     instructions, terminators, calls, indirect jumps, native methods and
     slowpaths is collected as code is emitted.

   Virtual registers live in stack slots, but a block-local write-through
   register cache keeps recently used values in rotating scratch registers
   x0..x7 — the baseline's "all available code size optimization enabled"
   at the codegen level, and the reason the same IR idiom does not encode
   identically at every site (register assignment depends on context, as
   with ART's linear scan). *)

open Calibro_aarch64
open Calibro_dex.Dex_ir
open Calibro_hgraph.Hgraph
module I = Isa

type config = { cto : bool }

let default_config = { cto = false }

(* ---- Emission buffer -------------------------------------------------- *)

type entry =
  | E_instr of I.t
  | E_branch of (int -> I.t) * int  (** constructor given byte disp, label *)
  | E_label of int
  | E_data of int32
  | E_data_label of int  (** a data word holding a label's method offset *)
  | E_call of int        (** bl with a relocation to a symbol *)

(* Block-local scratch-register cache (write-through). *)
type rcache = {
  mutable assoc : (int * I.reg) list;  (** vreg -> scratch register *)
  mutable rot : int;                   (** rotation cursor *)
}

type emitter = {
  mutable entries : entry list;  (* reversed *)
  mutable next_label : int;
  mutable dex_pc : int;
  mutable n_calls_seen : int;
  cache : rcache;
  config : config;
  slot_of_method : method_ref -> int;
  cto_hits : (string, int) Hashtbl.t;
  strings : (string, int) Hashtbl.t;  (* interned string -> pool label *)
  mutable slowpath_labels : (runtime_fn * int) list;
  mutable safepoints : (int * int) list;  (* reversed (label, dex_pc) pairs *)
  mutable slowpath_regions : (int * int) list;  (* (start label, end label) *)
  mutable embedded_regions : (int * int) list;
}

let fresh_label e =
  let l = e.next_label in
  e.next_label <- l + 1;
  l

let emit e i = e.entries <- E_instr i :: e.entries
let emit_branch e mk label = e.entries <- E_branch (mk, label) :: e.entries
let emit_label e l = e.entries <- E_label l :: e.entries
let emit_call e sym = e.entries <- E_call sym :: e.entries

let hit e pattern =
  Hashtbl.replace e.cto_hits pattern
    (1 + Option.value ~default:0 (Hashtbl.find_opt e.cto_hits pattern))

(* ---- Constant materialization ----------------------------------------- *)

(* Build an arbitrary integer into [rd] using movz/movn + movk, matching
   what the simulated machine computes (native OCaml int semantics). *)
let emit_mov_const e rd v =
  let chunk k = (v lsr (16 * k)) land 0xffff in
  if v >= 0 then begin
    emit e (I.Mov_wide { kind = I.MOVZ; size = I.X; rd; imm16 = chunk 0; hw = 0 });
    for k = 1 to 3 do
      if chunk k <> 0 then
        emit e (I.Mov_wide { kind = I.MOVK; size = I.X; rd; imm16 = chunk k; hw = k })
    done
  end
  else begin
    (* movn rd, #i sets rd = lnot i: start from the low 16 bits, then
       overwrite any chunk that is not all-ones. *)
    emit e
      (I.Mov_wide
         { kind = I.MOVN; size = I.X; rd; imm16 = lnot v land 0xffff; hw = 0 });
    for k = 1 to 3 do
      if chunk k <> 0xffff then
        emit e (I.Mov_wide { kind = I.MOVK; size = I.X; rd; imm16 = chunk k; hw = k })
    done
  end

(* ---- Frame access and the register cache ------------------------------ *)

let load_vreg e rt v =
  emit e (I.Ldr { size = I.X; rt; rn = I.sp; imm = Abi.vreg_slot v })

let store_vreg e rt v =
  emit e (I.Str { size = I.X; rt; rn = I.sp; imm = Abi.vreg_slot v })

let n_scratch = 8

let rc_flush e = e.cache.assoc <- []

let rc_forget_reg e r =
  e.cache.assoc <- List.filter (fun (_, r') -> r' <> r) e.cache.assoc

let rc_forget_vreg e v =
  e.cache.assoc <- List.filter (fun (v', _) -> v' <> v) e.cache.assoc

(* Next rotating scratch register not in [avoid]; forgets whatever value it
   held. *)
let rc_alloc ?(avoid = []) e =
  let c = e.cache in
  let rec go tries =
    if tries > n_scratch then invalid_arg "rc_alloc: no scratch register"
    else begin
      let r = c.rot mod n_scratch in
      c.rot <- c.rot + 1;
      if List.mem r avoid then go (tries + 1) else r
    end
  in
  let r = go 0 in
  rc_forget_reg e r;
  r

(* Register currently holding vreg [v], loading it if needed. *)
let rc_read ?(avoid = []) e v =
  match List.assoc_opt v e.cache.assoc with
  | Some r when not (List.mem r avoid) -> r
  | _ ->
    let r = rc_alloc ~avoid e in
    load_vreg e r v;
    e.cache.assoc <- (v, r) :: e.cache.assoc;
    r

(* [r] now holds vreg [v]: write through to the slot and remember. *)
let rc_write e v ~from:r =
  store_vreg e r v;
  rc_forget_vreg e v;
  e.cache.assoc <- (v, r) :: e.cache.assoc

(* ---- The three ART patterns (Figure 4) -------------------------------- *)

(* Figure 4a tail: entry load + indirect call, or a CTO thunk call. *)
let emit_java_invoke_pattern e =
  if e.config.cto then begin
    hit e "java_call";
    emit_call e (Abi.thunk_sym Abi.T_java_invoke)
  end
  else
    List.iter (emit e) (I.java_call_pattern ~entry_offset:Abi.entry_point_offset)

(* Figure 4b: runtime function call, or a CTO thunk call. *)
let emit_runtime_call_pattern e fn =
  if e.config.cto then begin
    hit e "runtime_call";
    emit_call e (Abi.thunk_sym (Abi.T_rt fn))
  end
  else
    List.iter (emit e) (I.runtime_call_pattern ~fn_offset:(Abi.runtime_fn_offset fn))

(* Figure 4c: the stack overflow check, or a CTO thunk call. Runs after the
   prologue has saved x29/x30, so clobbering the link register is fine. *)
let emit_stack_check_pattern e =
  if e.config.cto then begin
    hit e "stack_check";
    emit_call e (Abi.thunk_sym Abi.T_stack_check)
  end
  else List.iter (emit e) I.stack_check_pattern

(* Mark the return address of the call just emitted with a fresh label;
   the stackmap entry's native pc is resolved from it after layout. *)
let note_safepoint e =
  e.n_calls_seen <- e.n_calls_seen + 1;
  let l = fresh_label e in
  emit_label e l;
  e.safepoints <- (l, e.dex_pc) :: e.safepoints

(* ---- Slowpaths --------------------------------------------------------- *)

let slowpath_label e fn =
  match List.assoc_opt fn e.slowpath_labels with
  | Some l -> l
  | None ->
    let l = fresh_label e in
    e.slowpath_labels <- (fn, l) :: e.slowpath_labels;
    l

(* ---- Instruction templates -------------------------------------------- *)

let emit_binop_rr e op ~rd ~rn ~rm =
  match op with
  | Add ->
    emit e (I.Add_sub_reg { op = I.ADD; size = I.X; set_flags = false; rd; rn; rm })
  | Sub ->
    emit e (I.Add_sub_reg { op = I.SUB; size = I.X; set_flags = false; rd; rn; rm })
  | Mul -> emit e (I.Mul { size = I.X; rd; rn; rm })
  | Div -> emit e (I.Sdiv { size = I.X; rd; rn; rm })
  | Rem ->
    emit e (I.Sdiv { size = I.X; rd; rn; rm });
    emit e (I.Msub { size = I.X; rd; rn = rd; rm; ra = rn })
  | And -> emit e (I.Logic_reg { op = I.AND; size = I.X; rd; rn; rm })
  | Or -> emit e (I.Logic_reg { op = I.ORR; size = I.X; rd; rn; rm })
  | Xor -> emit e (I.Logic_reg { op = I.EOR; size = I.X; rd; rn; rm })

let cond_of_cmp = function
  | Eq -> I.EQ | Ne -> I.NE | Lt -> I.LT | Le -> I.LE | Gt -> I.GT | Ge -> I.GE

(* Index scaled by 8 into [dst] (element size); [dst] must differ from
   [idx]. *)
let scale8_index e ~dst ~idx =
  emit e (I.mov_imm ~size:I.X dst 8);
  emit e (I.Mul { size = I.X; rd = dst; rn = idx; rm = dst })

let emit_insn e insn =
  (match insn with
   | HConst (d, v) ->
     let r = rc_alloc e in
     emit_mov_const e r v;
     rc_write e d ~from:r
   | HMove (d, a) ->
     let r = rc_read e a in
     rc_write e d ~from:r
   | HBinop (op, d, a, b) ->
     let ra = rc_read e a in
     let rb = rc_read ~avoid:[ ra ] e b in
     let rd = rc_alloc ~avoid:[ ra; rb ] e in
     emit_binop_rr e op ~rd ~rn:ra ~rm:rb;
     rc_write e d ~from:rd
   | HBinop_lit (op, d, a, v) -> (
     let ra = rc_read e a in
     match op with
     | (Add | Sub) when v >= 0 && v < 4096 ->
       let rd = rc_alloc ~avoid:[ ra ] e in
       let op = match op with Add -> I.ADD | _ -> I.SUB in
       emit e
         (I.Add_sub_imm { op; size = I.X; set_flags = false; rd; rn = ra;
                          imm12 = v; shift12 = false });
       rc_write e d ~from:rd
     | _ ->
       let rl = rc_alloc ~avoid:[ ra ] e in
       emit_mov_const e rl v;
       let rd = rc_alloc ~avoid:[ ra; rl ] e in
       emit_binop_rr e op ~rd ~rn:ra ~rm:rl;
       rc_write e d ~from:rd)
   | HInvoke (callee, args, res) ->
     (* Arguments in x1..x7; x0 = ArtMethod*. Slots are current (the cache
        writes through), so load directly. *)
     rc_flush e;
     List.iteri (fun k arg -> load_vreg e (k + 1) arg) args;
     let slot = e.slot_of_method callee in
     let off = slot * Abi.art_method_size in
     if off < 4096 then
       emit e (I.add ~size:I.X I.x0 Abi.method_table_reg off)
     else begin
       (* add x0, x20, #hi lsl 12 ; add x0, x0, #lo *)
       let hi = off lsr 12 and lo = off land 0xfff in
       emit e
         (I.Add_sub_imm { op = I.ADD; size = I.X; set_flags = false;
                          rd = I.x0; rn = Abi.method_table_reg;
                          imm12 = hi; shift12 = true });
       if lo <> 0 then emit e (I.add ~size:I.X I.x0 I.x0 lo)
     end;
     emit_java_invoke_pattern e;
     note_safepoint e;
     (match res with
      | Some r -> rc_write e r ~from:I.x0
      | None -> ())
   | HInvoke_runtime (fn, args, res) ->
     rc_flush e;
     List.iteri (fun k arg -> load_vreg e k arg) args;
     emit_runtime_call_pattern e fn;
     note_safepoint e;
     (match res with
      | Some r -> rc_write e r ~from:I.x0
      | None -> ())
   | HNew_instance (_, d) ->
     rc_flush e;
     (* class id in x0; a real implementation resolves the class, we only
        need an allocation of a fixed-size object *)
     emit e (I.mov_imm ~size:I.X I.x0 0);
     emit_runtime_call_pattern e Alloc_object;
     note_safepoint e;
     rc_write e d ~from:I.x0
   | HNull_check v ->
     let r = rc_read e v in
     emit_branch e
       (fun disp -> I.Cbz { size = I.X; rt = r; disp })
       (slowpath_label e Throw_null_pointer)
   | HBounds_check (i, a) ->
     let ri = rc_read e i in
     let ra = rc_read ~avoid:[ ri ] e a in
     let rl = rc_alloc ~avoid:[ ri; ra ] e in
     emit e (I.Ldr { size = I.X; rt = rl; rn = ra; imm = 0 });
     emit e (I.cmp_reg ~size:I.X ri rl);
     emit_branch e
       (fun disp -> I.B_cond { cond = I.HS; disp })
       (slowpath_label e Throw_array_bounds)
   | HDiv_zero_check v ->
     let r = rc_read e v in
     emit_branch e
       (fun disp -> I.Cbz { size = I.X; rt = r; disp })
       (slowpath_label e Throw_div_zero)
   | HIget (d, o, off) ->
     let ro = rc_read e o in
     let rd = rc_alloc ~avoid:[ ro ] e in
     emit e (I.Ldr { size = I.X; rt = rd; rn = ro; imm = off });
     rc_write e d ~from:rd
   | HIput (v, o, off) ->
     let rv = rc_read e v in
     let ro = rc_read ~avoid:[ rv ] e o in
     emit e (I.Str { size = I.X; rt = rv; rn = ro; imm = off })
   | HAget (d, a, i) ->
     let ri = rc_read e i in
     let ra = rc_read ~avoid:[ ri ] e a in
     let rt = rc_alloc ~avoid:[ ri; ra ] e in
     scale8_index e ~dst:rt ~idx:ri;
     emit e (I.Add_sub_reg { op = I.ADD; size = I.X; set_flags = false;
                             rd = rt; rn = ra; rm = rt });
     let rd = rc_alloc ~avoid:[ rt ] e in
     emit e (I.Ldr { size = I.X; rt = rd; rn = rt; imm = 8 });
     rc_write e d ~from:rd
   | HAput (v, a, i) ->
     let ri = rc_read e i in
     let ra = rc_read ~avoid:[ ri ] e a in
     let rt = rc_alloc ~avoid:[ ri; ra ] e in
     scale8_index e ~dst:rt ~idx:ri;
     emit e (I.Add_sub_reg { op = I.ADD; size = I.X; set_flags = false;
                             rd = rt; rn = ra; rm = rt });
     let rv = rc_read ~avoid:[ rt ] e v in
     emit e (I.Str { size = I.X; rt = rv; rn = rt; imm = 8 })
   | HArray_len (d, a) ->
     let ra = rc_read e a in
     let rd = rc_alloc ~avoid:[ ra ] e in
     emit e (I.Ldr { size = I.X; rt = rd; rn = ra; imm = 0 });
     rc_write e d ~from:rd
   | HConst_string (d, s) ->
     let label =
       match Hashtbl.find_opt e.strings s with
       | Some l -> l
       | None ->
         let l = fresh_label e in
         Hashtbl.replace e.strings s l;
         l
     in
     let rd = rc_alloc e in
     emit_branch e (fun disp -> I.Adr { rd; disp }) label;
     rc_write e d ~from:rd);
  e.dex_pc <- e.dex_pc + 1

(* Frames up to 504 bytes fit stp/ldp pre/post-index immediates; larger
   frames use a separate sp adjustment, as real AArch64 compilers do. *)
let max_paired_frame = 504

let emit_prologue e frame =
  if frame <= max_paired_frame then
    emit e (I.Stp { size = I.X; rt = I.x29; rt2 = I.lr; rn = I.sp;
                    imm = -frame; mode = I.Pre })
  else begin
    emit e (I.sub ~size:I.X I.sp I.sp frame);
    emit e (I.Stp { size = I.X; rt = I.x29; rt2 = I.lr; rn = I.sp;
                    imm = 0; mode = I.Offset })
  end

let emit_epilogue e frame ~result =
  (match result with
   | Some r ->
     let rr = rc_read e r in
     if rr <> I.x0 then emit e (I.mov_reg ~size:I.X I.x0 rr)
   | None -> ());
  if frame <= max_paired_frame then
    emit e (I.Ldp { size = I.X; rt = I.x29; rt2 = I.lr; rn = I.sp;
                    imm = frame; mode = I.Post })
  else begin
    emit e (I.Ldp { size = I.X; rt = I.x29; rt2 = I.lr; rn = I.sp;
                    imm = 0; mode = I.Offset });
    emit e (I.add ~size:I.X I.sp I.sp frame)
  end;
  emit e I.Ret

let emit_terminator e ~frame ~block_label ~next_block term =
  match term with
  | TGoto t ->
    if Some t <> next_block then
      emit_branch e (fun disp -> I.B { disp }) (block_label t)
  | TIf (c, a, b, taken, fall) ->
    let ra = rc_read e a in
    let rb = rc_read ~avoid:[ ra ] e b in
    emit e (I.cmp_reg ~size:I.X ra rb);
    emit_branch e
      (fun disp -> I.B_cond { cond = cond_of_cmp c; disp })
      (block_label taken);
    if Some fall <> next_block then
      emit_branch e (fun disp -> I.B { disp }) (block_label fall)
  | TIfz (c, a, taken, fall) ->
    let ra = rc_read e a in
    (match c with
     | Eq ->
       emit_branch e
         (fun disp -> I.Cbz { size = I.X; rt = ra; disp })
         (block_label taken)
     | Ne ->
       emit_branch e
         (fun disp -> I.Cbnz { size = I.X; rt = ra; disp })
         (block_label taken)
     | c ->
       emit e (I.cmp_imm ~size:I.X ra 0);
       emit_branch e
         (fun disp -> I.B_cond { cond = cond_of_cmp c; disp })
         (block_label taken));
    if Some fall <> next_block then
      emit_branch e (fun disp -> I.B { disp }) (block_label fall)
  | TSwitch (v, cases, default) ->
    let ncases = List.length cases in
    let table = fresh_label e in
    let method_start = 0 (* label 0 is always the method start *) in
    let rv = rc_read e v in
    if ncases < 4096 then emit e (I.cmp_imm ~size:I.X rv ncases)
    else begin
      let rl = rc_alloc ~avoid:[ rv ] e in
      emit_mov_const e rl ncases;
      emit e (I.cmp_reg ~size:I.X rv rl)
    end;
    emit_branch e
      (fun disp -> I.B_cond { cond = I.HS; disp })
      (block_label default);
    let rt = rc_alloc ~avoid:[ rv ] e in
    let rs = rc_alloc ~avoid:[ rv; rt ] e in
    emit_branch e (fun disp -> I.Adr { rd = rt; disp }) table;
    scale8_index e ~dst:rs ~idx:rv;
    emit e (I.Add_sub_reg { op = I.ADD; size = I.X; set_flags = false;
                            rd = rt; rn = rt; rm = rs });
    emit e (I.Ldr { size = I.X; rt; rn = rt; imm = 0 });
    emit_branch e (fun disp -> I.Adr { rd = rs; disp }) method_start;
    emit e (I.Add_sub_reg { op = I.ADD; size = I.X; set_flags = false;
                            rd = rt; rn = rs; rm = rt });
    emit e (I.Br rt);
    (* Jump table: method-relative offsets, one 4-byte word padded to 8
       bytes per entry, emitted inline right after the br. *)
    let data_start = fresh_label e in
    emit_label e data_start;
    emit_label e table;
    List.iter
      (fun case ->
        e.entries <- E_data_label (block_label case) :: e.entries;
        e.entries <- E_data 0l :: e.entries)
      cases;
    let data_end = fresh_label e in
    emit_label e data_end;
    e.embedded_regions <- (data_start, data_end) :: e.embedded_regions
  | TReturn r -> emit_epilogue e frame ~result:r

(* ---- Layout and metadata extraction ------------------------------------ *)

let layout e =
  let entries = List.rev e.entries in
  (* Pass 1: label offsets. *)
  let label_off = Hashtbl.create 32 in
  let off = ref 0 in
  List.iter
    (fun entry ->
      match entry with
      | E_label l -> Hashtbl.replace label_off l !off
      | E_instr _ | E_branch _ | E_data _ | E_data_label _ | E_call _ ->
        off := !off + 4)
    entries;
  let code_size = !off in
  let off_of_label l =
    match Hashtbl.find_opt label_off l with
    | Some o -> o
    | None -> invalid_arg (Printf.sprintf "Codegen.layout: undefined label %d" l)
  in
  (* Pass 2: materialize words, collect metadata. *)
  let buf = Bytes.create code_size in
  let pc_rel = ref [] and terminators = ref [] and calls = ref [] in
  let relocs = ref [] in
  let pos = ref 0 in
  List.iter
    (fun entry ->
      let here = !pos in
      match entry with
      | E_label _ -> ()
      | E_data w ->
        Encode.word_to_bytes buf here (Int32.to_int w land 0xFFFFFFFF);
        pos := here + 4
      | E_data_label l ->
        Encode.word_to_bytes buf here (off_of_label l land 0xFFFFFFFF);
        pos := here + 4
      | E_call sym ->
        Encode.word_to_bytes buf here (Encode.encode (I.Bl { target = I.Sym sym }));
        relocs := (here, sym) :: !relocs;
        calls := here :: !calls;
        pos := here + 4
      | E_instr i ->
        Encode.word_to_bytes buf here (Encode.encode i);
        if I.is_terminator i then terminators := here :: !terminators;
        if I.is_call i then calls := here :: !calls;
        pos := here + 4
      | E_branch (mk, label) ->
        let disp = off_of_label label - here in
        let i = mk disp in
        Encode.word_to_bytes buf here (Encode.encode i);
        pc_rel := (here, off_of_label label) :: !pc_rel;
        if I.is_terminator i then terminators := here :: !terminators;
        pos := here + 4)
    entries;
  (buf, off_of_label, List.rev !pc_rel, List.rev !terminators,
   List.rev !calls, List.rev !relocs)

(* ---- Main entry --------------------------------------------------------- *)

let compile ?(config = default_config) ~slot_of_method (g : t) :
    Compiled_method.t =
  let slot = slot_of_method g.g_name in
  if g.g_is_native then
    { Compiled_method.name = g.g_name; slot; code = Bytes.create 0;
      relocs = []; meta = { Meta.empty with Meta.is_native = true };
      stackmap = []; num_params = g.g_num_params; is_entry = g.g_is_entry;
      cto_hits = [] }
  else begin
    let e =
      { entries = []; next_label = 0; dex_pc = 0; n_calls_seen = 0;
        cache = { assoc = []; rot = 0 };
        config; slot_of_method; cto_hits = Hashtbl.create 4;
        (* unseeded: the pool is emitted in this table's iteration order,
           which must not follow OCAMLRUNPARAM=R *)
        strings = Hashtbl.create ~random:false 4; slowpath_labels = [];
        safepoints = [];
        slowpath_regions = []; embedded_regions = [] }
    in
    let method_start = fresh_label e in
    assert (method_start = 0);
    emit_label e method_start;
    let frame = Abi.frame_size ~num_vregs:g.g_num_vregs in
    (* Prologue: save x29/x30 first (so CTO's stack-check thunk may clobber
       the link register), then the Figure 4c stack probe, then spill
       incoming arguments to their vreg slots. *)
    emit_prologue e frame;
    emit_stack_check_pattern e;
    for p = 0 to g.g_num_params - 1 do
      store_vreg e (p + 1) p
    done;
    (* Blocks in layout order; the register cache is block-local. *)
    let nb = Array.length g.blocks in
    let block_labels = Array.init nb (fun _ -> fresh_label e) in
    let block_label b = block_labels.(b) in
    let has_indirect = ref false in
    Array.iteri
      (fun bi blk ->
        rc_flush e;
        emit_label e (block_label bi);
        List.iter (emit_insn e) blk.insns;
        (match blk.term with TSwitch _ -> has_indirect := true | _ -> ());
        emit_terminator e ~frame ~block_label
          ~next_block:(if bi + 1 < nb then Some (bi + 1) else None)
          blk.term)
      g.blocks;
    (* Slowpaths (cold; section 3.4.2), then string pool (embedded data). *)
    List.iter
      (fun (fn, label) ->
        let sp_start = fresh_label e in
        emit_label e sp_start;
        emit_label e label;
        rc_flush e;
        emit_runtime_call_pattern e fn;
        note_safepoint e;
        emit e (I.Brk 0xdead);
        let sp_end = fresh_label e in
        emit_label e sp_end;
        e.slowpath_regions <- (sp_start, sp_end) :: e.slowpath_regions)
      e.slowpath_labels;
    Hashtbl.iter
      (fun s label ->
        let d_start = fresh_label e in
        emit_label e d_start;
        emit_label e label;
        let len = String.length s in
        e.entries <- E_data (Int32.of_int len) :: e.entries;
        let words = (len + 3) / 4 in
        for w = 0 to words - 1 do
          let word = ref 0 in
          for b = 0 to 3 do
            let idx = (w * 4) + b in
            if idx < len then word := !word lor (Char.code s.[idx] lsl (8 * b))
          done;
          e.entries <- E_data (Int32.of_int !word) :: e.entries
        done;
        let d_end = fresh_label e in
        emit_label e d_end;
        e.embedded_regions <- (d_start, d_end) :: e.embedded_regions)
      e.strings;
    let code, off_of_label, pc_rel, terminators, calls, relocs = layout e in
    let ranges_of label_pairs =
      List.filter_map
        (fun (ls, le) ->
          let s = off_of_label ls and e_ = off_of_label le in
          if e_ > s then Some { Meta.r_start = s; r_len = e_ - s } else None)
        label_pairs
    in
    let live_mask =
      if g.g_num_vregs >= 62 then -1 else (1 lsl g.g_num_vregs) - 1
    in
    let stackmap =
      List.rev_map
        (fun (label, dex_pc) ->
          { Stackmap.native_pc = off_of_label label; dex_pc;
            live_vregs = live_mask })
        e.safepoints
    in
    let meta =
      { Meta.embedded = ranges_of e.embedded_regions;
        pc_rel;
        terminators;
        calls;
        slowpaths = ranges_of e.slowpath_regions;
        has_indirect_jump = !has_indirect;
        is_native = false }
    in
    { Compiled_method.name = g.g_name; slot; code; relocs; meta; stackmap;
      num_params = g.g_num_params; is_entry = g.g_is_entry;
      cto_hits =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) e.cto_hits []
        |> List.sort compare }
  end
