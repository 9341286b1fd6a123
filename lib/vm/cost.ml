(* The cycle cost model, standing in for the Pixel 7's CPU cycle counters
   (paper section 4.5 measures CPU cycle counts via simpleperf).

   The model is deliberately simple but captures the two effects the paper
   discusses: extra call/return instructions from outlining cost pipeline
   cycles, and code locality matters through a cold-miss charge per
   64-byte i-cache line. Absolute numbers are meaningless; ratios between
   configurations are the measurement. *)

open Calibro_aarch64.Isa

type params = {
  base : int;            (** every instruction *)
  mem : int;             (** extra for each load/store *)
  mul : int;
  div : int;
  branch_taken : int;    (** extra for a taken branch *)
  call : int;            (** extra for bl/blr (pipeline + return-stack) *)
  indirect : int;        (** extra for br *)
  ret : int;
  icache_line : int;     (** bytes per i-cache line *)
  icache_miss : int;     (** cold-miss charge per new line *)
  runtime_call : int;    (** flat charge per runtime function invocation *)
  interp_penalty : int;
      (** extra per instruction fetched from the shelf image: shelved
          bodies run through the interpreter path, not compiled code *)
  unshelve_fault : int;
      (** one-time charge when a shelf stub first faults and the runtime
          redirects the ArtMethod entry to the parked body *)
}

let default =
  { base = 1; mem = 1; mul = 2; div = 8; branch_taken = 1; call = 1;
    indirect = 0; ret = 0; icache_line = 64; icache_miss = 8;
    runtime_call = 40; interp_penalty = 9; unshelve_fault = 400 }

type t = {
  params : params;
  mutable cycles : int;
  mutable instructions : int;
  lines : (int, unit) Hashtbl.t;  (** i-cache lines ever touched *)
  mutable last_line : int;  (** the line of the last fetch, or [min_int] *)
  mutable per_region : int array;  (** cycles attributed per text region *)
}

let create ?(params = default) ~n_regions () =
  { params; cycles = 0; instructions = 0; lines = Hashtbl.create 1024;
    last_line = min_int;
    per_region = Array.make (max 1 n_regions) 0 }

let charge t ~region c =
  t.cycles <- t.cycles + c;
  if region >= 0 && region < Array.length t.per_region then
    t.per_region.(region) <- t.per_region.(region) + c

(* Cost of one executed instruction; [taken] reports whether a conditional
   branch was taken. *)
let instr_cost p instr ~taken =
  let extra =
    match instr with
    | Ldr _ | Str _ | Ldr_lit _ -> p.mem
    | Ldp _ | Stp _ -> 2 * p.mem
    | Mul _ | Msub _ -> p.mul
    | Sdiv _ -> p.div
    | B _ -> p.branch_taken
    | B_cond _ | Cbz _ | Cbnz _ | Tbz _ | Tbnz _ ->
      if taken then p.branch_taken else 0
    | Bl _ | Blr _ -> p.call
    | Br _ -> p.indirect
    | Ret -> p.ret
    | _ -> 0
  in
  p.base + extra

let on_fetch t ~region ~pc instr ~taken =
  t.instructions <- t.instructions + 1;
  let line = pc / t.params.icache_line in
  (* lines are never dropped: a fetch from the last line cannot miss *)
  let miss = line <> t.last_line && not (Hashtbl.mem t.lines line) in
  if miss then Hashtbl.replace t.lines line ();
  t.last_line <- line;
  charge t ~region
    (instr_cost t.params instr ~taken + if miss then t.params.icache_miss else 0)

let on_runtime_call t ~region = charge t ~region t.params.runtime_call

(* Shelf-resident code models the interpreter: same semantics, every
   instruction pays [interp_penalty] on top of its compiled cost. *)
let on_shelf_fetch t ~region ~pc instr ~taken =
  on_fetch t ~region ~pc instr ~taken;
  charge t ~region t.params.interp_penalty

let on_unshelve_fault t ~region = charge t ~region t.params.unshelve_fault
