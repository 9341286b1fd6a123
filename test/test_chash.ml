(* Content hashing (Calibro_chash.Chash): stdlib MD5 behind the one
   streaming interface the cache keys and token digests use. The suite
   pins what those call sites lean on: streaming is a pure function of
   the concatenated bytes (any chunking, finalize mid-stream), the int
   framing is fixed, the values are Stdlib.Digest's, and — through
   literal vectors — the keys cannot change without editing a test. *)

module Chash = Calibro_chash.Chash
module Cache = Calibro_cache.Cache
module Seq_map = Calibro_core.Seq_map

let rng seed = Random.State.make [| seed |]
let rand_int = Random.State.int

let rand_string st len =
  String.init len (fun _ -> Char.chr (rand_int st 256))

(* Streaming over any chunking = one-shot. *)
let test_streaming_equals_oneshot () =
  let next = rng 7 in
  for trial = 0 to 199 do
    let len = rand_int next 300 in
    let s = rand_string next len in
    let st = Chash.init () in
    let pos = ref 0 in
    while !pos < len do
      let n = min (len - !pos) (1 + rand_int next 17) in
      Chash.feed_string st (String.sub s !pos n);
      pos := !pos + n
    done;
    Alcotest.(check string)
      (Printf.sprintf "trial %d (len %d)" trial len)
      (Chash.to_hex (Chash.string s))
      (Chash.to_hex (Chash.finalize st))
  done

(* feed_int is exactly 8 little-endian bytes of the int. *)
let test_feed_int_framing () =
  let next = rng 13 in
  for trial = 0 to 49 do
    let v = Int64.to_int (Random.State.bits64 next) in
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    let st = Chash.init () in
    Chash.feed_int st v;
    Alcotest.(check string)
      (Printf.sprintf "feed_int trial %d" trial)
      (Chash.to_hex (Chash.bytes b))
      (Chash.to_hex (Chash.finalize st))
  done

(* Chash = Stdlib.Digest, bit for bit. *)
let test_md5_parity () =
  let next = rng 23 in
  for trial = 0 to 99 do
    let s = rand_string next (rand_int next 200) in
    Alcotest.(check string)
      (Printf.sprintf "one-shot trial %d" trial)
      (Digest.to_hex (Digest.string s))
      (Chash.to_hex (Chash.string s))
  done

let test_to_hex () =
  let next = rng 29 in
  for _ = 0 to 19 do
    let h = Chash.string (rand_string next 10) in
    Alcotest.(check string) "to_hex matches Digest.to_hex" (Digest.to_hex h)
      (Chash.to_hex h)
  done;
  Alcotest.check_raises "to_hex rejects non-16-byte input"
    (Invalid_argument "Chash.to_hex") (fun () ->
      ignore (Chash.to_hex "short"))

(* finalize is pure: observing the digest mid-stream doesn't perturb the
   stream, and feeding may continue. *)
let test_finalize_pure () =
  let st = Chash.init () in
  Chash.feed_string st "part one|";
  let mid1 = Chash.finalize st in
  let mid2 = Chash.finalize st in
  Alcotest.(check string) "finalize twice" (Chash.to_hex mid1)
    (Chash.to_hex mid2);
  Chash.feed_string st "part two";
  Alcotest.(check string) "continue after finalize"
    (Chash.to_hex (Chash.string "part one|part two"))
    (Chash.to_hex (Chash.finalize st))

(* Literal MD5s of the two streamed key formats (computed outside OCaml):
   changing the hash regime or either framing must edit this test. *)
let test_key_vectors () =
  Alcotest.(check string) "Cache.key [a; bc]"
    "e18e3d907978aa4e80ee2e690c64e195" (Cache.key [ "a"; "bc" ]);
  Alcotest.(check string) "Seq_map.digest [Word (42, 4); Separator]"
    "47d92710b639ce9882f8420d1487a31d"
    (Seq_map.digest [ Seq_map.Word (42, 4); Seq_map.Separator ])

let suite =
  [ Alcotest.test_case "streaming = one-shot over any chunking" `Quick
      test_streaming_equals_oneshot;
    Alcotest.test_case "md5 backend = Stdlib.Digest" `Quick test_md5_parity;
    Alcotest.test_case "feed_int is 8 LE bytes" `Quick test_feed_int_framing;
    Alcotest.test_case "to_hex" `Quick test_to_hex;
    Alcotest.test_case "finalize is pure and resumable" `Quick
      test_finalize_pure;
    Alcotest.test_case "Cache.key and Seq_map.digest MD5 vectors" `Quick
      test_key_vectors ]
