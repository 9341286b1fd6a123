(* Synthetic Android-app generator: the stand-in for the six commercial
   APKs of the paper's evaluation (section 4.1).

   Apps are generated from seeded templates whose *instantiation reuse* is
   the redundancy knob: method bodies draw from a per-app pool of
   instruction idioms, so the same machine-code sequences recur across
   methods exactly the way production framework/glue code does. Method-kind
   mixes, pool sizes and perturbation rates differ per app profile
   ({!Apps}) to reproduce the paper's relative shapes (Kuaishou biggest and
   most redundant, Taobao least reducible, etc.). *)

open Calibro_dex.Dex_ir

type profile = {
  p_name : string;
  p_seed : int;
  p_n_arith : int;          (** framework/glue-style arithmetic methods *)
  p_idiom_pool : int;       (** distinct idioms; smaller = more redundancy *)
  p_idioms_per_method : int;
  p_perturb : float;        (** chance an idiom instantiation deviates *)
  p_filler : int;           (** unique (non-repetitive) instructions woven
                                between idioms; the entropy knob that sets
                                the app's overall redundancy level *)
  p_layouts : int;          (** distinct per-method register layouts; models
                                the register allocator assigning different
                                registers in different functions, which
                                dilutes binary-level repeats *)
  p_n_field : int;          (** getter/setter-style field workers *)
  p_field_stanzas : int;
  p_n_serializer : int;     (** array-stanza serializers *)
  p_serializer_stanzas : int;
  p_n_compute : int;        (** hot loop kernels *)
  p_compute_iters : int;
  p_n_dispatcher : int;     (** switch-based dispatchers (indirect jumps) *)
  p_n_strings : int;        (** methods with embedded string data *)
  p_n_native : int;
  p_n_glue : int;           (** entry methods calling many others *)
  p_script_repeats : int;   (** interaction-script iterations *)
}

(* Deterministically jitter every generation knob of [base] from [seed]:
   the input distribution of the fuzzing harness. Each seed yields a
   distinct pool size, perturbation rate, layout diversity and method-kind
   mix (including degenerate corners: a single layout, a tiny idiom pool,
   zero dispatchers), while the population stays small enough that a full
   multi-configuration differential check runs in well under a second. *)
let perturb_profile ~seed (base : profile) : profile =
  let rng = Random.State.make [| 0x5EED; seed |] in
  let jitter lo hi = lo + Random.State.int rng (hi - lo + 1) in
  { p_name = Printf.sprintf "%s_s%d" base.p_name seed;
    p_seed = seed * 7919 + 13;
    p_n_arith = jitter 4 14;
    p_idiom_pool = jitter 2 24;
    p_idioms_per_method = jitter 1 8;
    p_perturb = float_of_int (Random.State.int rng 35) /. 100.0;
    p_filler = jitter 0 16;
    p_layouts = jitter 1 24;
    p_n_field = jitter 0 4;
    p_field_stanzas = jitter 3 14;
    p_n_serializer = jitter 0 3;
    p_serializer_stanzas = jitter 3 14;
    p_n_compute = jitter 0 2;
    p_compute_iters = jitter 4 40;
    p_n_dispatcher = jitter 0 3;
    p_n_strings = jitter 0 3;
    p_n_native = jitter 0 2;
    p_n_glue = jitter 1 4;
    p_script_repeats = jitter 1 3 }

type script_step = { sc_method : method_ref; sc_args : int list; sc_repeat : int }
type script = script_step list

type app = { app : apk; app_script : script; app_profile : profile }

(* ---- Idiom pool -------------------------------------------------------- *)

(* An idiom is a short fixed sequence of register ops; instantiations are
   bit-identical, which is what the outliner harvests. Registers are fixed
   per idiom at pool-creation time. *)
let make_idiom rng =
  let ops = [| Add; Sub; Mul; And; Or; Xor |] in
  let n = 3 + Random.State.int rng 4 in
  let operand () =
    (* operands are mostly locals (layout-mapped scratch); parameters show
       up occasionally, like real code *)
    if Random.State.int rng 100 < 15 then Random.State.int rng 2
    else 2 + Random.State.int rng 5
  in
  let steps =
    List.init n (fun _ ->
        let op = ops.(Random.State.int rng (Array.length ops)) in
        let d = 2 + Random.State.int rng 4 in
        let a = operand () in
        let b = operand () in
        (op, d, a, b))
  in
  fun (mb : Mb.t) (layout : int array) ->
    List.iter
      (fun (op, d, a, b) -> Mb.binop mb op layout.(d) layout.(a) layout.(b))
      steps

let make_pool rng n = Array.init n (fun _ -> make_idiom rng)

(* A register layout maps logical registers 0..6 to concrete vregs.
   Parameters stay at v0/v1; scratch registers 2..6 land on a shuffled
   subset of [2, layout_regs). Two methods share binary-identical idiom
   code only when they share a layout. *)
let layout_regs = 20

let make_layout rng =
  (* each layout draws its scratch registers from a window of its own size,
     so frame layouts (and thus spill-slot offsets) differ across layouts *)
  let window = 6 + Random.State.int rng (layout_regs - 8) in
  let scratch = Array.init window (fun i -> i + 2) in
  for i = Array.length scratch - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = scratch.(i) in
    scratch.(i) <- scratch.(j);
    scratch.(j) <- t
  done;
  Array.append [| 0; 1 |] (Array.sub scratch 0 5)

let make_layouts rng n = Array.init n (fun _ -> make_layout rng)

(* Unique per-site noise: random constants materialize as distinct movz/movk
   words, so these instructions never repeat across sites. The results feed
   the live accumulator [acc] so no optimization pass can delete them. *)
let emit_noise rng b (layout : int array) ~acc k =
  for _ = 1 to k do
    match Random.State.int rng 3 with
    | 0 -> Mb.binop_lit b Xor acc acc (Random.State.int rng 0x3FFFFFFF + 4096)
    | 1 -> Mb.binop_lit b Add acc acc (Random.State.int rng 0xFFFFFF + 4096)
    | _ ->
      let tmp = layout.(2 + Random.State.int rng 5) in
      Mb.const b tmp (Random.State.int rng 0x3FFFFFFF);
      Mb.binop b Sub acc acc tmp
  done

(* ---- Method templates --------------------------------------------------- *)

let mref cls name = { class_name = cls; method_name = name }

(* Framework-style arithmetic method: k idioms from the pool + an accumulator.
   regs: v0 v1 params; v2..v5 idiom scratch; v6 accumulator. *)
let gen_arith rng ~pool ~layouts ~perturb ~filler ~k ~nparams name =
  let b = Mb.create () in
  let layout = layouts.(Random.State.int rng (Array.length layouts)) in
  let acc = layout.(6) in
  (* initialize the registers idioms read before they are written *)
  for r = 2 to 5 do
    Mb.const b layout.(r) (Random.State.int rng 0xffff)
  done;
  Mb.const b acc 1;
  (* fold every parameter in so none is dead *)
  for pidx = 0 to nparams - 1 do
    Mb.binop b Add acc acc pidx
  done;
  for _ = 1 to k do
    let idiom = pool.(Random.State.int rng (Array.length pool)) in
    idiom b layout;
    if Random.State.float rng 1.0 < perturb then
      (* deviation: an extra unique instruction breaks the repeat *)
      Mb.binop_lit b Add acc acc (Random.State.int rng 4096);
    emit_noise rng b layout ~acc filler;
    Mb.binop b Xor acc acc layout.(2)
  done;
  Mb.ret b (Some acc);
  Mb.finish b ~name ~num_params:nparams ~num_vregs:layout_regs ()

(* Field worker: allocate an object, write/read a fixed set of fields.
   The stanza sequence is identical across all field workers of the app. *)
let gen_field rng ~layouts ~stanzas ~filler name =
  let b = Mb.create () in
  let layout = layouts.(Random.State.int rng (Array.length layouts)) in
  let obj = layout.(2) and acc = layout.(3) and t1 = layout.(4)
  and t2 = layout.(5) in
  Mb.emit b (New_instance ("app.Box", obj));
  Mb.const b acc 0;
  for j = 0 to stanzas - 1 do
    let off = 8 * (1 + (j mod 8)) in
    Mb.binop b Add t1 0 1;
    Mb.emit b (Iput (t1, obj, off));
    Mb.emit b (Iget (t2, obj, off));
    if j mod 3 = 0 then emit_noise rng b layout ~acc filler;
    Mb.binop b Add acc acc t2
  done;
  Mb.ret b (Some acc);
  Mb.finish b ~name ~num_params:2 ~num_vregs:layout_regs ()

(* Serializer: array of [stanzas] elements written with identical stanzas
   driven by a running index. *)
let gen_serializer rng ~layouts ~stanzas ~filler name =
  let b = Mb.create () in
  let layout = layouts.(Random.State.int rng (Array.length layouts)) in
  let len = layout.(2) and arr = layout.(3) and idx = layout.(4)
  and v = layout.(5) and acc = layout.(6) in
  Mb.const b len stanzas;
  Mb.rtcall b Alloc_array [ len ] (Some arr);
  Mb.const b idx 0;
  for j = 1 to stanzas do
    Mb.binop b Mul v 0 1;
    Mb.binop b Add v v idx;
    Mb.emit b (Aput (v, arr, idx));
    if j mod 4 = 0 then emit_noise rng b layout ~acc:v filler;
    Mb.binop_lit b Add idx idx 1
  done;
  (* checksum pass *)
  Mb.const b idx 0;
  Mb.const b acc 0;
  let loop = Mb.fresh_label b in
  let done_ = Mb.fresh_label b in
  Mb.place b loop;
  Mb.emit b (If (Ge, idx, len, done_));
  Mb.emit b (Aget (v, arr, idx));
  Mb.binop b Add acc acc v;
  Mb.binop_lit b Add idx idx 1;
  Mb.emit b (Goto loop);
  Mb.place b done_;
  Mb.ret b (Some acc);
  Mb.finish b ~name ~num_params:2 ~num_vregs:layout_regs ()

(* Hot compute kernel: a bounded loop of arithmetic. Each kernel's loop
   body is generated independently, with unique literals woven between the
   operations, so no two kernels share a two-instruction run — the tight
   loops real profiles are dominated by are exactly the code outlining
   leaves alone. *)
let gen_compute rng ~iters ~index name =
  let b = Mb.create () in
  (* kernels get their own region of the frame: hot loops in real apps are
     register-allocated code whose few spills land in slots other code
     never touches, so their instruction pairs do not coincide with the
     app-wide repeats the outliner harvests. The base is distinct per
     kernel so no two kernel loop bodies can alias. *)
  let base = 8 + (4 * index) in
  let bound = base and i = base + 1 and acc = base + 2 and tmp = base + 3 in
  Mb.const b bound iters;
  Mb.const b i 0;
  Mb.const b acc 1;
  Mb.const b tmp 2;
  let loop = Mb.fresh_label b in
  let done_ = Mb.fresh_label b in
  Mb.place b loop;
  Mb.emit b (If (Ge, i, bound, done_));
  let n_ops = 3 + Random.State.int rng 4 in
  for _ = 1 to n_ops do
    (* a shared-shape op followed by a unique literal op: runs of identical
       words never reach length 2 across kernels *)
    (match Random.State.int rng 4 with
     | 0 -> Mb.binop b Add acc acc 0
     | 1 -> Mb.binop b Mul tmp acc 1
     | 2 -> Mb.binop b Xor acc acc tmp
     | _ -> Mb.binop b Sub acc acc i);
    Mb.binop_lit b Xor acc acc (Random.State.int rng 0x3FFFFFFF + 4096)
  done;
  Mb.binop_lit b And acc acc 0xffffff;
  Mb.binop_lit b Add i i 1;
  Mb.emit b (Goto loop);
  Mb.place b done_;
  Mb.ret b (Some acc);
  Mb.finish b ~name ~num_params:2 ~num_vregs:(base + 4) ()

(* Dispatcher: switch over the selector; excluded from outlining because of
   its indirect jump (paper 3.3.1). *)
let gen_dispatcher rng ~pool ~layouts ~callees name =
  let b = Mb.create () in
  let layout = layouts.(Random.State.int rng (Array.length layouts)) in
  (* pre-dispatch work drawn from the same idiom pool: this code repeats
     like everything else, but the method's indirect jump bars LTBO from it
     (section 3.3.1) — a real source of the estimate-vs-realized gap *)
  for r = 2 to 6 do
    Mb.const b layout.(r) (Random.State.int rng 0xffff)
  done;
  for _ = 1 to 2 + Random.State.int rng 3 do
    let idiom = pool.(Random.State.int rng (Array.length pool)) in
    idiom b layout
  done;
  let n = max 2 (List.length callees) in
  Mb.binop_lit b Rem 2 0 n;
  let labels = List.init n (fun _ -> Mb.fresh_label b) in
  let done_ = Mb.fresh_label b in
  Mb.emit b (Switch (2, labels));
  Mb.const b 3 (-1);
  Mb.emit b (Goto done_);
  List.iteri
    (fun i l ->
      Mb.place b l;
      (match List.nth_opt callees i with
       | Some (callee, arity) ->
         Mb.invoke b callee (List.init arity (fun k -> k mod 2)) (Some 3)
       | None -> Mb.const b 3 i);
      Mb.emit b (Goto done_))
    labels;
  Mb.place b done_;
  Mb.ret b (Some 3);
  Mb.finish b ~name ~num_params:2 ~num_vregs:layout_regs ()

(* String former: loads embedded string data (the disassembly hazard). *)
let gen_strings rng ~n name =
  let b = Mb.create () in
  let pool =
    [| "content://app/feed"; "application/json"; "user_profile_cache";
       "video_prefetch"; "analytics_event"; "share_channel" |]
  in
  Mb.const b 2 0;
  for _ = 1 to n do
    let s = pool.(Random.State.int rng (Array.length pool)) in
    Mb.emit b (Const_string (3, s));
    Mb.rtcall b Resolve_string [ 3 ] (Some 3);
    Mb.binop b Add 2 2 3
  done;
  Mb.binop b Sub 2 2 2;
  Mb.binop b Add 2 2 0;
  Mb.binop b Add 2 2 1;
  Mb.ret b (Some 2);
  Mb.finish b ~name ~num_params:2 ~num_vregs:4 ()

(* Glue: an entry method calling a batch of other methods. Accumulation
   style and argument order vary per method, like hand-written UI glue. *)
let gen_glue rng ~layouts ~filler ~callees name =
  let b = Mb.create () in
  let layout = layouts.(Random.State.int rng (Array.length layouts)) in
  let acc = layout.(2) and res = layout.(3) in
  let op =
    match Random.State.int rng 3 with 0 -> Add | 1 -> Xor | _ -> Sub
  in
  Mb.const b acc 0;
  List.iteri
    (fun i (callee, arity) ->
      let args =
        List.init arity (fun k ->
            if Random.State.bool rng then k mod 2 else (k + 1) mod 2)
      in
      Mb.invoke b callee args (Some res);
      if i mod 4 = 3 then emit_noise rng b layout ~acc filler;
      Mb.binop b op acc acc res)
    callees;
  Mb.ret b (Some acc);
  Mb.finish b ~name ~num_params:2 ~num_vregs:layout_regs ~is_entry:true ()

let gen_native name =
  { name; num_params = 2; num_vregs = 2; is_native = true; is_entry = false;
    insns = [||] }

(* ---- Whole-app generation ----------------------------------------------- *)

let generate (p : profile) : app =
  let rng = Random.State.make [| p.p_seed |] in
  let cls kind i = Printf.sprintf "com.%s.%s%d" p.p_name kind (i / 20) in
  let pool = make_pool rng p.p_idiom_pool in
  let layouts = make_layouts rng (max 1 p.p_layouts) in
  (* Cold arith methods carry the app's boilerplate redundancy; a smaller
     warm population (the code interaction scripts actually execute) is
     generated with much higher entropy — in real apps the hot paths are
     the hand-optimized, diverse ones, which is why the paper's runtime
     overhead is small even without hot-function filtering. *)
  let arith =
    List.init p.p_n_arith (fun i ->
        let k =
          max 1 (p.p_idioms_per_method + Random.State.int rng 3 - 1)
        in
        let nparams = 1 + Random.State.int rng 3 in
        gen_arith rng ~pool ~layouts ~perturb:p.p_perturb ~filler:p.p_filler
          ~k ~nparams
          (mref (cls "Util" i) (Printf.sprintf "op%d" i)))
  in
  let warm =
    List.init (max 8 (p.p_n_arith / 6)) (fun i ->
        let k =
          max 1 (p.p_idioms_per_method + Random.State.int rng 3 - 1)
        in
        let nparams = 1 + Random.State.int rng 3 in
        gen_arith rng ~pool ~layouts
          ~perturb:0.45
          ~filler:(p.p_filler * 2) ~k ~nparams
          (mref (cls "Feature" i) (Printf.sprintf "step%d" i)))
  in
  let field =
    List.init p.p_n_field (fun i ->
        gen_field rng ~layouts
          ~stanzas:(max 3 (p.p_field_stanzas - 3 + Random.State.int rng 7))
          ~filler:p.p_filler
          (mref (cls "Model" i) (Printf.sprintf "bind%d" i)))
  in
  let serial =
    List.init p.p_n_serializer (fun i ->
        gen_serializer rng ~layouts
          ~stanzas:(max 3 (p.p_serializer_stanzas - 3 + Random.State.int rng 7))
          ~filler:p.p_filler
          (mref (cls "Codec" i) (Printf.sprintf "encode%d" i)))
  in
  let compute =
    List.init p.p_n_compute (fun i ->
        gen_compute rng
          ~iters:(p.p_compute_iters * (1 + (i mod 5)))
          ~index:i
          (mref (cls "Engine" i) (Printf.sprintf "kernel%d" i)))
  in
  let strings =
    List.init p.p_n_strings (fun i ->
        gen_strings rng ~n:(2 + Random.State.int rng 4)
          (mref (cls "Res" i) (Printf.sprintf "uri%d" i)))
  in
  let natives =
    List.init p.p_n_native (fun i ->
        gen_native (mref (cls "Jni" i) (Printf.sprintf "nat%d" i)))
  in
  let named ms = List.map (fun (m : meth) -> (m.name, m.num_params)) ms in
  let basic_pool =
    Array.of_list (named arith @ named field @ named serial @ named strings)
  in
  let warm_pool = Array.of_list (named warm) in
  (* Callees come from a contiguous window of the pool: features touch
     related code, which is what gives partial page residency (Table 5). *)
  let pick_from pool n =
    let pool_n = Array.length pool in
    let window = max 1 (pool_n / 12) in
    let start = Random.State.int rng (max 1 (pool_n - window)) in
    List.init n (fun _ -> pool.(start + Random.State.int rng window))
  in
  let pick_callees n = pick_from basic_pool n in
  let pick_warm_callees n = pick_from warm_pool n in
  let dispatchers =
    List.init p.p_n_dispatcher (fun i ->
        gen_dispatcher rng ~pool ~layouts
          ~callees:(pick_callees (3 + Random.State.int rng 3))
          (mref (cls "Router" i) (Printf.sprintf "route%d" i)))
  in
  let glue =
    List.init p.p_n_glue (fun i ->
        let callees =
          (* mostly warm, diverse code plus a couple of cold methods *)
          pick_warm_callees (5 + Random.State.int rng 5)
          @ pick_callees 2
          @ (if compute <> [] then
               [ ((List.nth compute (i mod List.length compute)).name, 2) ]
             else [])
          @
          if dispatchers <> [] then
            [ ((List.nth dispatchers (i mod List.length dispatchers)).name, 2) ]
          else []
        in
        gen_glue rng ~layouts ~filler:p.p_filler ~callees
          (mref (cls "Ui" i) (Printf.sprintf "onEvent%d" i)))
  in
  let compute =
    (* kernels are also entry points so scripts can drive them directly *)
    List.map (fun (m : meth) -> { m with is_entry = true }) compute
  in
  let all_methods =
    arith @ warm @ field @ serial @ strings @ natives @ dispatchers @ compute
    @ glue
  in
  (* Partition methods into classes, classes into dex files. *)
  let classes =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (m : meth) ->
        let cur =
          Option.value ~default:[] (Hashtbl.find_opt tbl m.name.class_name)
        in
        Hashtbl.replace tbl m.name.class_name (m :: cur))
      all_methods;
    Hashtbl.fold
      (fun cls_name ms acc -> { cls_name; cls_methods = List.rev ms } :: acc)
      tbl []
    |> List.sort (fun a b -> compare a.cls_name b.cls_name)
  in
  let n_dex = max 1 (List.length classes / 40) in
  let dexes =
    List.init n_dex (fun d ->
        { dex_name = Printf.sprintf "classes%02d" (d + 1);
          classes =
            List.filteri (fun i _ -> i mod n_dex = d) classes })
  in
  let apk = { apk_name = p.p_name; dexes } in
  (* Interaction script: drive the kernels and a third of the glue
     entries, like the uiautomator scripts of sections 4.3/4.5 — a real
     session exercises only part of the app, which is what makes resident
     memory (Table 5) smaller than the text segment. *)
  let entries = List.filter (fun (m : meth) -> m.is_entry) all_methods in
  let script =
    List.filteri (fun i _ -> i mod 3 = 0) entries
    |> List.map (fun (m : meth) ->
           { sc_method = m.name;
             sc_args =
               [ 7 + Random.State.int rng 50; 3 + Random.State.int rng 9 ];
             sc_repeat = p.p_script_repeats })
  in
  { app = apk; app_script = script; app_profile = p }

(* ---- Script replay ------------------------------------------------------ *)

(* Load [oat] in the simulator and run each step of [script] [sc_repeat]
   times, failing on the first machine fault. Returns the interpreter, for
   its cycles, resident bytes or profile. *)
let run_script ?dict oat script =
  let t = Calibro_vm.Interp.load ?dict oat in
  List.iter
    (fun st ->
      for _ = 1 to st.sc_repeat do
        match Calibro_vm.Interp.call t st.sc_method st.sc_args with
        | Calibro_vm.Interp.Fault m ->
          failwith
            (Printf.sprintf "script fault in %s: %s"
               (method_ref_to_string st.sc_method) m)
        | _ -> ()
      done)
    script;
  t
