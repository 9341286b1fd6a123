(* PlOpti — paralleled suffix trees (paper section 3.4.1).

   "Firstly, we simply partition the candidate methods into K groups evenly
   in terms of method numbers ... we choose a simple and random partition
   instead of clustering similar methods ... Secondly, we build a suffix
   tree for each group in parallel. Thirdly, we detect repetitive code
   sequences, outline the binary code and patch ... per suffix tree in
   parallel."

   Detection (the expensive part: tree build + repeat search + selection)
   runs on one OCaml 5 domain per group. The cost is cross-tree repeats
   going unseen — exactly the paper's tolerable code-size loss in Table 4. *)

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

(* Run [Ltbo.detect] over each group, distributed across a fixed pool of
   worker domains. The pool size is capped by the hardware's recommended
   count: spawning domains beyond the core count only adds scheduler and GC
   overhead (on a 1-core host the groups run sequentially, which still
   keeps the per-tree working set small — the second benefit the paper
   describes). [?max_domains] overrides the cap, mainly so tests can
   exercise the pool on small hosts. *)
let detect_parallel ?max_domains ?cache ?digest_of ?scope ~options
    (methods : Compiled_method.t array) (groups : int list list) :
    (Ltbo.decision list * Ltbo.stats) list =
  let max_domains =
    match max_domains with
    | Some m -> max 1 m
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  Obs.Gauge.set "plopti.max_domains" (float_of_int max_domains);
  (* The per-group span runs *inside* the worker, so each PlOpti domain
     contributes its own trace lane (tid = domain id) and its histogram
     updates land in that domain's shard, merged after the join. *)
  let detect_group g =
    Obs.span ~cat:"plopti" "plopti.detect_group"
      ~args:(fun () -> [ ("group_methods", Json.Int (List.length g)) ])
      (fun () -> Ltbo.detect ?cache ?digest_of ?scope ~options methods g)
  in
  Obs.span ~cat:"plopti" "plopti.detect_parallel"
    ~args:(fun () -> [ ("groups", Json.Int (List.length groups)) ])
  @@ fun () ->
  match groups with
  | [] -> []
  | [ g ] -> [ detect_group g ]
  | gs when max_domains <= 1 ->
    Obs.Counter.incr "plopti.cap_hits";
    List.map detect_group gs
  | gs ->
    (* Fixed pool: [n_workers] domains pull group indices from a shared
       atomic counter until the groups run out. Unlike wave scheduling
       (spawn a batch, join the whole batch, repeat), no domain ever idles
       behind the slowest group of a batch — a worker that finishes a cheap
       group immediately claims the next one. Results land in a slot array
       indexed by group, so the output order is the input group order
       regardless of which domain ran what. *)
    let groups_arr = Array.of_list gs in
    let n = Array.length groups_arr in
    let n_workers = min max_domains n in
    if n > n_workers then Obs.Counter.incr "plopti.cap_hits";
    Obs.Counter.add "plopti.domains_spawned" n_workers;
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      Obs.span ~cat:"plopti" "plopti.worker" @@ fun () ->
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (detect_group groups_arr.(i));
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init n_workers (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains;
    Array.to_list results
    |> List.map (function Some r -> r | None -> assert false)

(* The LTBO driver (contract in parallel.mli). Rounds harvest
   second-order repeats, sequences that only become identical once their
   differing parts were outlined away: the whole-program iteration Chabbi
   et al. describe for iOS. Outlined functions carry no metadata, so they
   are never re-outlined. The rewrite and the final link run through the
   calling domain's scratch arena ({!Calibro_oat.Arena.with_scratch}). *)
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
