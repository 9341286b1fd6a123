(* The PGO drift loop (ARTist-style continuous re-optimization). See
   pgo.mli for the lifecycle; this file is the accumulator, the drift
   metric and the per-app state machine.

   Thread model: the manager is called from calibrod's reader threads
   (`report`) and worker domains (`refreshed`, `note_build`,
   `relink_done`) concurrently; one mutex over the whole table keeps
   every transition atomic. Events are counted in the live-safe
   pgo.<app>.* Obs counters as they happen. *)

open Calibro_dex.Dex_ir
module Profile = Calibro_profile.Profile
module Obs = Calibro_obs.Obs

type config = {
  threshold : float;
  hysteresis : int;
  decay : float;
  coverage : float;
}

let default_config =
  { threshold = 0.3; hysteresis = 3; decay = 0.5; coverage = 0.8 }

(* ---- The drift metric -------------------------------------------------- *)

module Drift = struct
  (* Mass-weighted Jaccard distance between the hot set the served OAT
     was built with and the hot set the accumulated profile selects now:
     1 - mass(S cap C) / mass(S cup C), with each method's mass its cycle
     count in [profile]. Weighting by mass (not cardinality) makes the
     score monotone in *displaced execution time*: a cold tail method
     swapping in or out barely moves it, the former #1 method going cold
     moves it a lot. Both sets identical gives 0; disjoint sets give 1;
     an empty union (no evidence either way) gives 0. *)
  let score ~(profile : Profile.t) ~(served : method_ref list)
      ~(current : method_ref list) =
    let mass_of =
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun (s : Profile.sample) ->
          Hashtbl.replace tbl s.Profile.s_method
            (s.Profile.s_cycles
            + Option.value ~default:0 (Hashtbl.find_opt tbl s.Profile.s_method)))
        profile;
      fun m -> Option.value ~default:0 (Hashtbl.find_opt tbl m)
    in
    let s = List.sort_uniq compare served
    and c = List.sort_uniq compare current in
    let mass l = List.fold_left (fun a m -> a + mass_of m) 0 l in
    let inter = List.filter (fun m -> List.mem m s) c in
    let union = List.sort_uniq compare (s @ c) in
    let mu = mass union in
    if mu = 0 then 0.0
    else 1.0 -. (float_of_int (mass inter) /. float_of_int mu)
end

(* ---- Per-app state ------------------------------------------------------ *)

(* What identifies "the same build request" across the feedback loop is
   the request minus its deadline: a retry with a different deadline is
   still the same app and config. The manager clears the deadline itself
   on every key it takes, so no caller can forget to. *)
module Request = Calibro_core.Request

let key_of (rq : Request.t) = { rq with Request.rq_deadline_ms = None }

type entry = {
  e_app : string;  (* apk name, for the pgo.<app>.* counters *)
  mutable e_key : Request.t;  (* the request whose OAT clients run *)
  mutable e_hot : method_ref list;  (* hot set the served OAT used *)
  mutable e_acc : Profile.t;  (* decayed-window accumulator *)
  mutable e_streak : int;  (* consecutive over-threshold reports *)
  mutable e_streak_prof : Profile.t;  (* merge of the streak's reports *)
  mutable e_inflight : bool;  (* a relink is queued or running *)
  mutable e_refreshed : (Calibro_oat.Oat_file.t * float) option;
      (* relinked OAT + its build seconds, served to matching Builds *)
}

(* Tallies count the app, not the key: they survive a re-shipped key. *)
let count e what n = Obs.Counter.add (Printf.sprintf "pgo.%s.%s" e.e_app what) n

module Manager = struct
  type t = {
    cfg : config;
    lock : Mutex.t;
    entries : (string, entry) Hashtbl.t;  (* keyed by app digest *)
  }

  let create ?(config = default_config) () =
    { cfg = config; lock = Mutex.create (); entries = Hashtbl.create 16 }

  let config t = t.cfg

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let fresh_entry ~app ~key ~hot =
    { e_app = app;
      e_key = key;
      e_hot = hot;
      e_acc = [];
      e_streak = 0;
      e_streak_prof = [];
      e_inflight = false;
      e_refreshed = None }

  (* A build of [key] completed normally. First build registers the app;
     a repeat of the same key leaves the drift state alone (the serving
     path replays builds constantly); a *different* key means the app or
     its config was re-shipped — the old served hot set and accumulator
     describe an OAT nobody runs anymore, so start over. *)
  let note_build t ~digest ~app ~key ~hot =
    let key = key_of key in
    locked t @@ fun () ->
    match Hashtbl.find_opt t.entries digest with
    | None -> Hashtbl.add t.entries digest (fresh_entry ~app ~key ~hot)
    | Some e ->
      if e.e_key <> key then
        Hashtbl.replace t.entries digest (fresh_entry ~app ~key ~hot)

  (* The refreshed OAT for [key], if a relink has landed since the build
     that [note_build] registered. Only an exact key match may be served
     stale-free — a different config or app text must build for real. *)
  let refreshed t ~digest ~key =
    let key = key_of key in
    locked t @@ fun () ->
    match Hashtbl.find_opt t.entries digest with
    | Some e when e.e_key = key -> e.e_refreshed
    | _ -> None

  type report_outcome =
    | Unknown  (* no build of this app digest ever registered *)
    | Ack of { drift : float; relink : Request.t option }

  let report t ~digest ~(profile : Profile.t) ~allow_relink =
    locked t @@ fun () ->
    match Hashtbl.find_opt t.entries digest with
    | None -> Unknown
    | Some e ->
      count e "reports" 1;
      e.e_acc <- Profile.merge (Profile.decay ~factor:t.cfg.decay e.e_acc)
                   profile;
      let current = Profile.hot_set ~coverage:t.cfg.coverage e.e_acc in
      let drift =
        Drift.score ~profile:e.e_acc ~served:e.e_hot ~current
      in
      if drift > t.cfg.threshold then begin
        count e "drift_detected" 1;
        e.e_streak <- e.e_streak + 1;
        (* The relink profile is the merge of the streak's reports only:
           all collected after the drift began, so its hot set is the
           *new* regime's, undiluted by the accumulator's decayed history
           — which is what makes the relinked OAT byte-identical to a
           from-scratch build against the drifted profile. *)
        e.e_streak_prof <- Profile.merge e.e_streak_prof profile
      end
      else begin
        e.e_streak <- 0;
        e.e_streak_prof <- []
      end;
      let relink =
        if
          e.e_streak >= t.cfg.hysteresis && (not e.e_inflight)
          && allow_relink
        then begin
          e.e_inflight <- true;
          let profile = Profile.to_string e.e_streak_prof in
          Some { e.e_key with Request.rq_profile = Some profile }
        end
        else None
      in
      Ack { drift; relink }

  let relink_done t ~digest ~oat ~build_s ~hot ~cache_hits =
    locked t @@ fun () ->
    match Hashtbl.find_opt t.entries digest with
    | None -> ()
    | Some e ->
      e.e_refreshed <- Some (oat, build_s);
      e.e_hot <- hot;
      (* The streak profile becomes the accumulator: the drift loop now
         measures against the regime the relink just adopted, so steady
         post-drift reports score ~0 and a single drift relinks once. *)
      e.e_acc <- e.e_streak_prof;
      e.e_streak <- 0;
      e.e_streak_prof <- [];
      count e "relinks" 1;
      count e "relink_cache_hits" cache_hits;
      e.e_inflight <- false

  (* The relink could not run (build failure, or the admission queue was
     full/closed): clear the in-flight latch so a later over-threshold
     report may schedule again, and drop the streak — its profile was
     consumed by the attempt. *)
  let relink_failed t ~digest =
    locked t @@ fun () ->
    match Hashtbl.find_opt t.entries digest with
    | None -> ()
    | Some e ->
      e.e_inflight <- false;
      e.e_streak <- 0;
      e.e_streak_prof <- []
end
