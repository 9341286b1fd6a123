(* PlOpti — paralleled suffix trees (paper section 3.4.1).

   "Firstly, we simply partition the candidate methods into K groups evenly
   in terms of method numbers ... we choose a simple and random partition
   instead of clustering similar methods ... Secondly, we build a suffix
   tree for each group in parallel. Thirdly, we detect repetitive code
   sequences, outline the binary code and patch ... per suffix tree in
   parallel."

   Detection (the expensive part: tree build + repeat search + selection)
   runs per group on the fork-join pool below, which the pipeline also
   uses for per-method compilation. The cost is cross-tree repeats going
   unseen — exactly the paper's tolerable code-size loss in Table 4. *)

open Calibro_codegen
module Obs = Calibro_obs.Obs
module Json = Calibro_obs.Json

(* Deterministic "random" partition: Fisher–Yates with a seeded splitmix64
   stream, then split evenly. The previous power-of-two-modulus LCG made
   the low output bit alternate strictly, so [state mod bound] fixed the
   parity of every swap index and the "random" partition was strongly
   structured. splitmix64 (Steele et al., "Fast splittable pseudorandom
   number generators") is uniform in all 64 output bits; we draw from the
   top 30 via a multiply-shift, which also avoids modulo bias. *)
let partition ~k ~seed (candidates : int list) : int list list =
  let arr = Array.of_list candidates in
  let n = Array.length arr in
  let state = ref (Int64.of_int seed) in
  let rand bound =
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    let hi = Int64.to_int (Int64.shift_right_logical z 34) in
    (hi * bound) asr 30
  in
  for i = n - 1 downto 1 do
    let j = rand (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  let k = max 1 (min k (max 1 n)) in
  let groups = Array.make k [] in
  Array.iteri (fun i mi -> groups.(i mod k) <- mi :: groups.(i mod k)) arr;
  Array.to_list groups |> List.filter (fun g -> g <> [])

(* ---- The fork-join pool ------------------------------------------------

   One process-wide pool of helper domains, at most
   [Domain.recommended_domain_count () - 1] of them, spawned lazily and
   parked on a condition between calls. Spawning and joining domains per
   call would cost a domain's start-up, minor heap and [Obs] buffer every
   time. A call claims only the helpers that are idle when it starts, so
   nested calls and concurrent callers never wait on each other.

   A call also claims no more helpers than there are idle cores: [busy]
   counts the domains at work (callers of [map] and [occupy], and claimed
   helpers), and a call brings it to at most
   [Domain.recommended_domain_count ()]. Without that budget, calibrod's
   worker domains, each one busy with its own build, would share the
   cores with helpers too, and every stop-the-world minor collection
   would wait for a descheduled domain. All pool state is guarded by
   [lock]. *)

type call = {
  work : unit -> unit;  (* claims and runs indices until none are left *)
  mutable pending : int;  (* claimed helpers still working *)
  mutable alloc : float;  (* bytes the helpers allocated for the call *)
  finished : Condition.t;  (* signalled when [pending] reaches 0 *)
}

type helper = { mutable call : call option; wake : Condition.t }

let lock = Mutex.create ()
let idle : helper list ref = ref []
let spawned = ref 0
let busy = ref 0
let cores = Domain.recommended_domain_count ()

(* Lowered to the current size by a failed [Domain.spawn] (the runtime's
   domain limit): the pool shrinks, the build goes on. *)
let capacity = ref (cores - 1)

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let helpers () = locked (fun () -> !spawned)

(* Whether [busy] already counts this domain: true inside [occupy] and
   on a helper. *)
let counted = Domain.DLS.new_key (fun () -> ref false)

let occupy f =
  let c = Domain.DLS.get counted in
  if !c then f ()
  else begin
    locked (fun () -> incr busy);
    c := true;
    Fun.protect
      ~finally:(fun () ->
        c := false;
        locked (fun () -> decr busy))
      f
  end

(* [Gc.allocated_bytes] counts the calling domain only; a call's helper
   allocations are credited to the domain that made the call, so that a
   build's allocation reads the same whether or not helpers took part. *)
let credited = Domain.DLS.new_key (fun () -> ref 0.0)
let allocated_bytes () = Gc.allocated_bytes () +. !(Domain.DLS.get credited)

(* A helper's life: wait for a call, work it, go back on the idle list
   and tell the caller. [work] catches every exception of [f] itself; the
   catch-all here only keeps a helper alive through a bug in [map]. *)
let park h () =
  Domain.DLS.get counted := true;
  while true do
    Mutex.lock lock;
    while Option.is_none h.call do
      Condition.wait h.wake lock
    done;
    let c = Option.get h.call in
    h.call <- None;
    Mutex.unlock lock;
    let a0 = allocated_bytes () in
    (try c.work () with _ -> ());
    let a = allocated_bytes () -. a0 in
    Mutex.lock lock;
    idle := h :: !idle;
    decr busy;
    c.alloc <- c.alloc +. a;
    c.pending <- c.pending - 1;
    if c.pending = 0 then Condition.signal c.finished;
    Mutex.unlock lock
  done

(* Put up to [want] helpers to work on [c], within the core budget: idle
   ones first, then new ones while the pool is below capacity. New
   domains are spawned outside the lock, already holding their call. *)
let start c ~want =
  Mutex.lock lock;
  let want = min want (cores - !busy) in
  let rec take k =
    match !idle with
    | h :: rest when k > 0 ->
      idle := rest;
      h.call <- Some c;
      Condition.signal h.wake;
      1 + take (k - 1)
    | _ -> 0
  in
  let woken = take want in
  let fresh = max 0 (min (want - woken) (!capacity - !spawned)) in
  spawned := !spawned + fresh;
  busy := !busy + woken + fresh;
  c.pending <- woken + fresh;
  Mutex.unlock lock;
  let failed = ref 0 in
  for _ = 1 to fresh do
    let h = { call = Some c; wake = Condition.create () } in
    match Domain.spawn (park h) with
    | _ -> ()
    | exception _ ->
      incr failed;
      locked (fun () ->
          decr spawned;
          decr busy;
          capacity := !spawned;
          c.pending <- c.pending - 1)
  done;
  if fresh > 0 then Obs.Gauge.set "parallel.helpers" (float_of_int (helpers ()));
  Obs.Counter.add "parallel.helpers_claimed" (woken + fresh - !failed)

let map f a =
  let n = Array.length a in
  if n <= 1 then Array.map f a
  else
    occupy @@ fun () ->
    let results = Array.make n None and errors = Array.make n None in
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f a.(i) with
         | r -> results.(i) <- Some r
         | exception e ->
           errors.(i) <- Some (e, Printexc.get_raw_backtrace ());
           (* Every lower index is already claimed, so the lowest failing
              index is among those still running: claim nothing more. *)
           Atomic.set next n);
        work ()
      end
    in
    let c = { work; pending = 0; alloc = 0.0; finished = Condition.create () } in
    start c ~want:(n - 1);
    work ();
    Mutex.lock lock;
    while c.pending > 0 do
      Condition.wait c.finished lock
    done;
    Mutex.unlock lock;
    let credit = Domain.DLS.get credited in
    credit := !credit +. c.alloc;
    match Array.find_map Fun.id errors with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.map Option.get results

(* ---- PlOpti detection ---------------------------------------------------- *)

(* One [Ltbo.detect] per group under {!map}. The per-group span runs
   inside whichever domain claimed the group, so each helper contributes
   its own trace lane (tid = domain id). *)
let detect_parallel ?cache ?digest_of ?scope ~options
    (methods : Compiled_method.t array) (groups : int list list) :
    (Ltbo.decision list * Ltbo.stats) list =
  Obs.span ~cat:"plopti" "plopti.detect_parallel"
    ~args:(fun () -> [ ("groups", Json.Int (List.length groups)) ])
  @@ fun () ->
  Array.of_list groups
  |> map (fun g ->
         Obs.span ~cat:"plopti" "plopti.detect_group"
           ~args:(fun () -> [ ("group_methods", Json.Int (List.length g)) ])
           (fun () -> Ltbo.detect ?cache ?digest_of ?scope ~options methods g))
  |> Array.to_list

(* The LTBO driver (contract in parallel.mli). Rounds harvest
   second-order repeats, sequences that only become identical once their
   differing parts were outlined away: the whole-program iteration Chabbi
   et al. describe for iOS. Outlined functions carry no metadata, so they
   are never re-outlined. *)
let run ?cache ?digest_of ?scope ?(options = Ltbo.default_options) ~k
    ~rounds (methods : Compiled_method.t list) : Ltbo.result =
  let rec go round sym_base digest_of (acc : Ltbo.result) =
    let marr = Array.of_list acc.Ltbo.methods in
    let candidates = Ltbo.candidates acc.Ltbo.methods in
    let detect_results =
      if k <= 1 then
        [ Ltbo.detect ?cache ?digest_of ?scope ~options marr candidates ]
      else
        detect_parallel ?cache ?digest_of ?scope ~options marr
          (partition ~k ~seed:42 candidates)
    in
    let r = Ltbo.run_with ~sym_base ~detect_results acc.Ltbo.methods in
    let n = r.Ltbo.stats.Ltbo.s_outlined_functions in
    let acc =
      { r with
        Ltbo.outlined = acc.Ltbo.outlined @ r.Ltbo.outlined;
        stats = Ltbo.merge_stats acc.Ltbo.stats r.Ltbo.stats }
    in
    (* compile-time digests describe the input methods: round 1 only *)
    if round >= rounds || n = 0 then acc
    else go (round + 1) (sym_base + n) None acc
  in
  go 1 Ltbo.outlined_sym_base digest_of
    { Ltbo.methods; outlined = []; stats = Ltbo.empty_stats }
