(* Seeded fuzzing of the outlining pipeline.

   Each seed deterministically perturbs the demo workload profile
   ({!Calibro_workload.Appgen.perturb_profile}) — pool sizes, perturbation
   rates, register layouts, method-kind mixes — generates the resulting
   APK and runs the full differential oracle on it. Same seed, same APK,
   same verdict: a failing seed number is a complete bug report.

   On failure the APK is shrunk ({!Shrink}) against the same oracle
   configuration and emitted as a ready-to-paste Alcotest case whose
   source text is the minimized .dexsim program. *)

open Calibro_dex.Dex_ir
module Appgen = Calibro_workload.Appgen
module Apps = Calibro_workload.Apps
module Dex_text = Calibro_dex.Dex_text
module Pipeline = Calibro_core.Pipeline
module Dict = Calibro_dict.Dict
module Obs = Calibro_obs.Obs
module Json = Calibro_obs.Json

let profile_of_seed seed = Appgen.perturb_profile ~seed Apps.demo

let apk_of_seed seed = (Appgen.generate (profile_of_seed seed)).Appgen.app

type failure = {
  fl_seed : int;
  fl_detail : string list;  (** divergence strings, or a build error *)
  fl_shrunk : apk option;
  fl_stats : Shrink.stats option;
}

type outcome = { fz_seeds : int; fz_failures : failure list }

let ok o = o.fz_failures = []

(* ---- Reproduction ------------------------------------------------------- *)

(* Render a failing (ideally shrunk) APK as a self-contained Alcotest
   case. The body re-parses the minimized .dexsim source and re-runs the
   oracle, so pasting it into test/ pins the bug without depending on the
   generator staying bit-stable. *)
let alcotest_case_of ~seed (apk : apk) : string =
  let src = Dex_text.to_string apk in
  Printf.sprintf
    {|let test_fuzz_seed_%d () =
  let src = {dex|
%s|dex} in
  let apk =
    match Calibro_dex.Dex_text.parse src with
    | Ok apk -> apk
    | Error e -> Alcotest.failf "parse: %%s" e
  in
  match Calibro_check.Oracle.run apk with
  | Error e -> Alcotest.failf "oracle: %%s" e
  | Ok r ->
    Alcotest.(check (list string))
      "no divergences" []
      (List.map Calibro_check.Oracle.divergence_to_string
         r.Calibro_check.Oracle.r_divergences)
|}
    seed src

(* ---- Single seed -------------------------------------------------------- *)

let report_details = function
  | Error e -> [ e ]
  | Ok (r : Oracle.report) ->
    List.map Oracle.divergence_to_string r.Oracle.r_divergences

(* The shared-dict fuzz configuration: a dictionary carrying every body
   the seed's PlOpti build outlines (the build counted as two apps, so
   each body clears the >= 2-apps mining bar). Linking then binds all of
   them — the maximal dictionary coverage one generated app can exercise,
   and the oracle must still see baseline-identical execution. *)
let dict_of apk =
  match
    Pipeline.build ~config:(Calibro_core.Config.cto_ltbo_pl ~k:8 ()) apk
  with
  | exception Pipeline.Build_error _ -> None
  | b -> Some (Dict.of_oats [ b.Pipeline.b_oat; b.Pipeline.b_oat ])

(* The shelve fuzz coverage: 0.8 matches the release-train default, and
   on the generated apps it leaves a warm set small enough that most
   methods really are parked — the variant exercises stubs, faults and
   shelf-resident execution on every seed. *)
let default_shelve_coverage = 0.8

let run_seed ?configs ?(mutate = fun _ oat -> oat) ?(shrink = true)
    ?(dict = true) ?(shelve = true) seed : failure option =
  let apk = apk_of_seed seed in
  let dict_for a = if dict then dict_of a else None in
  let shelve_cov = if shelve then Some default_shelve_coverage else None in
  match Oracle.run ?configs ~mutate ?dict:(dict_for apk) ?shelve:shelve_cov apk with
  | Ok r when Oracle.ok r -> None
  | report ->
    let shrunk, stats =
      if shrink then begin
        (* Shrinking re-runs the oracle per candidate deletion, so narrow
           it to the configurations that actually diverged (falling back
           to the original set for build errors or baseline faults) and
           bound the baseline fuel by the original run: a candidate whose
           baseline needs much more fuel than the whole original APK is a
           manufactured infinite loop, not a smaller reproducer. *)
        let configs, baseline_fuel =
          match report with
          | Error _ -> (configs, None)
          | Ok r ->
            let bad =
              List.sort_uniq compare
                (List.map
                   (fun d -> Oracle.plain_config_name d.Oracle.dv_config)
                   r.Oracle.r_divergences)
            in
            let configs =
              match
                List.filter
                  (fun (c : Calibro_core.Config.t) ->
                    List.mem c.Calibro_core.Config.name bad)
                  r.Oracle.r_config_set
              with
              | [] -> configs
              | cs -> Some cs
            in
            (configs, Some ((4 * r.Oracle.r_baseline_retired) + 250_000))
        in
        (* Re-mine the dictionary per candidate: a shrunk app's bodies
           differ, and a stale dictionary would bind nothing, silently
           turning the dict variant into the plain one. *)
        let still_failing a =
          Oracle.fails ?baseline_fuel ?configs ~mutate ?dict:(dict_for a)
            ?shelve:shelve_cov a
        in
        let a, st = Shrink.shrink ~still_failing apk in
        (Some a, Some st)
      end
      else (None, None)
    in
    Some
      { fl_seed = seed; fl_detail = report_details report;
        fl_shrunk = shrunk; fl_stats = stats }

(* ---- The loop ----------------------------------------------------------- *)

(* [log] receives one line per event (seed started, failure found);
   the CLI wires it to stderr, tests leave it silent. *)
let run ?(seeds = 25) ?(base_seed = 0) ?configs ?mutate ?shrink ?dict ?shelve
    ?(log = fun (_ : string) -> ()) () : outcome =
  let failures = ref [] in
  for i = 0 to seeds - 1 do
    let seed = base_seed + i in
    let profile = profile_of_seed seed in
    log
      (Printf.sprintf "seed %d: app %s (%d-ish methods)" seed
         profile.Appgen.p_name
         (profile.Appgen.p_n_arith + profile.Appgen.p_n_field
        + profile.Appgen.p_n_serializer + profile.Appgen.p_n_compute
        + profile.Appgen.p_n_dispatcher + profile.Appgen.p_n_glue));
    Obs.Counter.incr "fuzz.seeds_run";
    match
      Obs.span ~cat:"check" "fuzz.seed"
        ~args:(fun () -> [ ("seed", Json.Int seed) ])
        (fun () -> run_seed ?configs ?mutate ?shrink ?dict ?shelve seed)
    with
    | None -> ()
    | Some f ->
      Obs.Counter.incr "fuzz.seeds_failed";
      log
        (Printf.sprintf "seed %d FAILED:\n  %s" seed
           (String.concat "\n  " f.fl_detail));
      (match f.fl_stats with
       | Some st ->
         log
           (Printf.sprintf
              "seed %d shrunk: %d -> %d methods, %d -> %d insns (%d oracle runs)"
              seed st.Shrink.s_methods_before st.Shrink.s_methods_after
              st.Shrink.s_insns_before st.Shrink.s_insns_after
              st.Shrink.s_predicate_runs)
       | None -> ());
      failures := f :: !failures
  done;
  { fz_seeds = seeds; fz_failures = List.rev !failures }

(* ---- Protocol frame fuzzing (--proto) ------------------------------------

   The wire layer's promise is narrower and harsher than the pipeline's:
   whatever bytes arrive, {!Calibro_server.Protocol.read_frame} either
   returns a payload or raises the typed [Frame_error] — never any other
   exception, and never an allocation sized by an attacker-controlled
   length field. Each seed deterministically derives a handful of frame
   corruptions (truncations, bad magic, oversized declared lengths, pure
   garbage, trailing junk) and feeds them through a real socketpair, the
   same fd path the daemon reads. Request decoding is fuzzed behind the
   frame layer the same way: garbage payloads must come back [Error],
   never raise. *)

module Proto = struct
  module P = Calibro_server.Protocol
  module Oat_file = Calibro_oat.Oat_file

  type outcome = { pf_cases : int; pf_failures : string list }

  let ok o = o.pf_failures = []

  (* The same splitmix64 stream the partitioner and router use; the fuzz
     corpus is a pure function of the seed. *)
  let splitmix64 z =
    let z = Int64.mul 0x9E3779B97F4A7C15L (Int64.logxor z (Int64.shift_right_logical z 30)) in
    let z = Int64.mul 0xBF58476D1CE4E5B9L (Int64.logxor z (Int64.shift_right_logical z 27)) in
    let z = Int64.mul 0x94D049BB133111EBL (Int64.logxor z (Int64.shift_right_logical z 31)) in
    Int64.logxor z (Int64.shift_right_logical z 33)

  type rng = { mutable state : int64 }

  let rng seed = { state = splitmix64 (Int64.of_int (seed + 1)) }

  let next r =
    r.state <- splitmix64 r.state;
    Int64.to_int (Int64.logand r.state 0x3FFFFFFFFFFFFFFFL)

  let bytes r n = String.init n (fun _ -> Char.chr (next r land 0xff))

  (* Feed [input] to read_frame through a socketpair — the writer runs in
     its own thread (then shuts down its end, so short inputs surface as
     EOF, exactly like a dropped client). *)
  let feed input =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let writer =
      Thread.create
        (fun () ->
          (try
             ignore (Unix.write_substring b input 0 (String.length input))
           with Unix.Unix_error _ -> ());
          try Unix.shutdown b Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
        ()
    in
    let result =
      match P.read_frame a with
      | payload -> Ok payload
      | exception P.Frame_error m -> Error (`Frame_error m)
      | exception e -> Error (`Raised (Printexc.to_string e))
    in
    Thread.join writer;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ a; b ];
    result

  (* One seed's worth of cases; each returns [None] or a failure line. *)
  let cases_of_seed seed : (string * (unit -> string option)) list =
    let r = rng seed in
    let payload = bytes r (1 + (next r mod 2048)) in
    let frame = P.to_frame payload in
    let expect_frame_error what input () =
      match feed input with
      | Ok p ->
        Some
          (Printf.sprintf "seed %d: %s was accepted as a %d-byte payload"
             seed what (String.length p))
      | Error (`Frame_error _) -> None
      | Error (`Raised e) ->
        Some (Printf.sprintf "seed %d: %s raised %s, not Frame_error" seed
                what e)
    in
    [ ( "valid frame",
        fun () ->
          match feed frame with
          | Ok p when String.equal p payload -> None
          | Ok _ -> Some (Printf.sprintf "seed %d: payload corrupted" seed)
          | Error (`Frame_error m) ->
            Some (Printf.sprintf "seed %d: valid frame refused: %s" seed m)
          | Error (`Raised e) ->
            Some (Printf.sprintf "seed %d: valid frame raised %s" seed e) );
      ( "truncated frame",
        (* Cut anywhere strictly inside: mid-magic, mid-length or
           mid-payload, all must be typed EOF errors. *)
        expect_frame_error "truncated frame"
          (String.sub frame 0 (next r mod String.length frame)) );
      ( "bad magic",
        expect_frame_error "bad magic"
          (let b = Bytes.of_string frame in
           let i = next r mod 4 in
           Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
           Bytes.to_string b) );
      ( "oversized length",
        fun () ->
          (* A header declaring up to 2GiB with no body behind it: the
             reader must refuse on the declared length alone — before
             allocating a buffer for it. The allocation bound is the
             fuzz oracle for that: parsing the header costs a few hundred
             bytes, believing it costs hundreds of MB. *)
          let declared =
            P.max_frame + 1 + (next r mod (0x7FFFFFFF - P.max_frame - 1))
          in
          let header = Bytes.create 8 in
          Bytes.blit_string "CLB1" 0 header 0 4;
          Bytes.set_int32_le header 4 (Int32.of_int declared);
          let before = Gc.allocated_bytes () in
          let verdict =
            expect_frame_error "oversized length" (Bytes.to_string header) ()
          in
          let allocated = Gc.allocated_bytes () -. before in
          if verdict <> None then verdict
          else if allocated > 1_000_000.0 then
            Some
              (Printf.sprintf
                 "seed %d: refusing a %d-byte declared length allocated \
                  %.0f bytes"
                 seed declared allocated)
          else None );
      ( "garbage bytes",
        (* Random bytes that cannot be a frame (first byte is forced off
           'C' so the magic check must fire). *)
        expect_frame_error "garbage"
          (let g = bytes r (8 + (next r mod 64)) in
           let b = Bytes.of_string g in
           if Bytes.get b 0 = 'C' then Bytes.set b 0 'X';
           Bytes.to_string b) );
      ( "garbage payload decode",
        fun () ->
          (* Behind a well-formed frame, a garbage payload must decode to
             Error, never raise — the reader thread turns it into a typed
             Malformed answer. *)
          match P.decode_request (bytes r (next r mod 512)) with
          | Ok _ | Error _ -> None
          | exception e ->
            Some
              (Printf.sprintf "seed %d: decode_request raised %s" seed
                 (Printexc.to_string e)) );
      ( "report frame round-trips",
        fun () ->
          (* The PGO feedback frame: a tag-3 request with arbitrary app
             digest and profile text (the daemon, not the codec, judges
             the profile's syntax) must survive the codec exactly. *)
          let rp =
            { P.pr_app = Digest.to_hex (Digest.string (bytes r 8));
              pr_profile = bytes r (next r mod 512) }
          in
          (match P.decode_request (P.encode_report rp) with
           | Ok (P.Report rp') when rp' = rp -> None
           | Ok _ ->
             Some (Printf.sprintf "seed %d: report decoded differently" seed)
           | Error m ->
             Some (Printf.sprintf "seed %d: report refused: %s" seed m)
           | exception e ->
             Some
               (Printf.sprintf "seed %d: report round-trip raised %s" seed
                  (Printexc.to_string e))) );
      ( "truncated report is rejected",
        fun () ->
          let full =
            P.encode_report
              { P.pr_app = bytes r 32; pr_profile = bytes r 64 }
          in
          let rec check len =
            if len >= String.length full then None
            else
              match P.decode_request (String.sub full 0 len) with
              | Error _ -> check (len + 1)
              | Ok _ ->
                Some
                  (Printf.sprintf
                     "seed %d: report truncated to %d bytes decoded" seed len)
              | exception e ->
                Some
                  (Printf.sprintf
                     "seed %d: report truncated to %d raised %s" seed len
                     (Printexc.to_string e))
          in
          check 0 );
      ( "report with a lying profile length",
        fun () ->
          (* Tag 3, a well-formed app string, then a profile whose
             declared length promises ~2GiB that is not there: the decoder
             must refuse on the bounds check — before allocating for the
             lie. Same allocation oracle as the oversized frame header. *)
          let b = Buffer.create 64 in
          Buffer.add_char b (Char.chr 3);
          let app = bytes r 32 in
          let add_u32 v =
            Buffer.add_char b (Char.chr (v land 0xff));
            Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
            Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
            Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))
          in
          add_u32 (String.length app);
          Buffer.add_string b app;
          add_u32 (0x7FFFFFF0 - (next r mod 4096));
          Buffer.add_string b (bytes r (next r mod 8));
          let before = Gc.allocated_bytes () in
          let verdict =
            match P.decode_request (Buffer.contents b) with
            | Error _ -> None
            | Ok _ ->
              Some
                (Printf.sprintf "seed %d: lying report length decoded" seed)
            | exception e ->
              Some
                (Printf.sprintf "seed %d: lying report length raised %s" seed
                   (Printexc.to_string e))
          in
          let allocated = Gc.allocated_bytes () -. before in
          if verdict <> None then verdict
          else if allocated > 1_000_000.0 then
            Some
              (Printf.sprintf
                 "seed %d: refusing a lying report length allocated %.0f                   bytes"
                 seed allocated)
          else None );
      ( "Built frame parses clean",
        fun () ->
          (* A random container, framed by [write_frame] the way the
             daemon answers a build, must come back through
             [read_frame]/[decode_response] as exactly the response it
             encoded. *)
          let oat =
            { Oat_file.apk_name = "fuzz-" ^ string_of_int seed;
              text = Bytes.of_string (bytes r (4 * (1 + (next r mod 256))));
              methods = [];
              thunks = [];
              outlined =
                List.init (next r mod 4) (fun i ->
                    { Oat_file.ol_offset = 4 * i; ol_size = 4 });
              dict_digest =
                (if next r mod 2 = 0 then None
                 else Some (Digest.to_hex (Digest.string (bytes r 8))));
              shelve = None }
          in
          let stats =
            { P.bs_text_size = Bytes.length oat.Oat_file.text;
              bs_methods = next r mod 1000;
              bs_thunks = next r mod 100;
              bs_outlined = next r mod 100;
              bs_build_s = float_of_int (next r mod 10_000) /. 1000.0 }
          in
          let reference =
            P.Built
              { oat = Bytes.to_string (Oat_file.to_bytes oat); stats }
          in
          let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          let writer =
            Thread.create
              (fun () ->
                (try P.write_frame b (P.encode_response reference)
                 with _ -> ());
                try Unix.shutdown b Unix.SHUTDOWN_SEND
                with Unix.Unix_error _ -> ())
              ()
          in
          let verdict =
            match P.read_frame a with
            | payload -> (
              match P.decode_response payload with
              | Ok resp when resp = reference -> None
              | Ok _ ->
                Some
                  (Printf.sprintf
                     "seed %d: written Built decoded to a different \
                      response"
                     seed)
              | Error m ->
                Some
                  (Printf.sprintf
                     "seed %d: written Built refused by decoder: %s"
                     seed m))
            | exception P.Frame_error m ->
              Some
                (Printf.sprintf
                   "seed %d: written Built refused by read_frame: %s"
                   seed m)
            | exception e ->
              Some
                (Printf.sprintf "seed %d: written Built raised %s" seed
                   (Printexc.to_string e))
          in
          Thread.join writer;
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            [ a; b ];
          verdict ) ]

  let run ?(seeds = 25) ?(base_seed = 0) ?(log = fun (_ : string) -> ()) () :
      outcome =
    let failures = ref [] and cases = ref 0 in
    for i = 0 to seeds - 1 do
      let seed = base_seed + i in
      log (Printf.sprintf "proto seed %d" seed);
      Obs.Counter.incr "fuzz.proto_seeds_run";
      List.iter
        (fun (_name, case) ->
          incr cases;
          match case () with
          | None -> ()
          | Some failure ->
            Obs.Counter.incr "fuzz.proto_cases_failed";
            log ("FAILED: " ^ failure);
            failures := failure :: !failures)
        (cases_of_seed seed)
    done;
    { pf_cases = !cases; pf_failures = List.rev !failures }
end
