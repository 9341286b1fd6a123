module Obs = Calibro_obs.Obs

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable buf : bigstring;
  mutable len : int;
  mutable chunk : Bytes.t;  (* staging for write_fd, grown lazily *)
}

let alloc n : bigstring = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

let create ?(capacity = 64 * 1024) () =
  { buf = alloc (max 16 capacity); len = 0; chunk = Bytes.create 0 }

let length a = a.len
let capacity a = Bigarray.Array1.dim a.buf
let clear a = a.len <- 0

let grow a needed =
  let cap = capacity a in
  let cap' = ref (max cap 16) in
  while !cap' < needed do
    cap' := !cap' * 2
  done;
  let buf' = alloc !cap' in
  Bigarray.Array1.blit
    (Bigarray.Array1.sub a.buf 0 a.len)
    (Bigarray.Array1.sub buf' 0 a.len);
  a.buf <- buf';
  Obs.Counter.incr "arena.grows"

let[@inline] ensure a n = if a.len + n > capacity a then grow a (a.len + n)

let add_char a c =
  ensure a 1;
  Bigarray.Array1.unsafe_set a.buf a.len c;
  a.len <- a.len + 1

let add_substring a s ~off ~len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Arena.add_substring";
  ensure a len;
  let buf = a.buf and base = a.len in
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set buf (base + i) (String.unsafe_get s (off + i))
  done;
  a.len <- base + len

let add_string a s = add_substring a s ~off:0 ~len:(String.length s)

let add_subbytes a b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Arena.add_subbytes";
  ensure a len;
  let buf = a.buf and base = a.len in
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set buf (base + i) (Bytes.unsafe_get b (off + i))
  done;
  a.len <- base + len

let add_bytes a b = add_subbytes a b ~off:0 ~len:(Bytes.length b)

let set_u32_le a pos v =
  if pos < 0 || pos > a.len - 4 then invalid_arg "Arena.set_u32_le";
  let buf = a.buf in
  Bigarray.Array1.unsafe_set buf pos (Char.unsafe_chr (v land 0xFF));
  Bigarray.Array1.unsafe_set buf (pos + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bigarray.Array1.unsafe_set buf (pos + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bigarray.Array1.unsafe_set buf (pos + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))

let get_u32_le a pos =
  if pos < 0 || pos > a.len - 4 then invalid_arg "Arena.get_u32_le";
  let buf = a.buf in
  let b i = Char.code (Bigarray.Array1.unsafe_get buf (pos + i)) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let add_i32_le a v =
  ensure a 4;
  a.len <- a.len + 4;
  set_u32_le a (a.len - 4) (v land 0xFFFFFFFF)

let add_f64_le a f =
  ensure a 8;
  let bits = Int64.bits_of_float f in
  let buf = a.buf and base = a.len in
  for i = 0 to 7 do
    Bigarray.Array1.unsafe_set buf (base + i)
      (Char.unsafe_chr
         (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF))
  done;
  a.len <- base + 8

let reserve a n =
  if n < 0 then invalid_arg "Arena.reserve";
  ensure a n;
  let off = a.len in
  let buf = a.buf in
  for i = off to off + n - 1 do
    Bigarray.Array1.unsafe_set buf i '\000'
  done;
  a.len <- off + n;
  off

let blit_to_bytes a ~src_off dst ~dst_off ~len =
  if
    src_off < 0 || len < 0 || src_off > a.len - len
    || dst_off < 0 || dst_off > Bytes.length dst - len
  then invalid_arg "Arena.blit_to_bytes";
  let buf = a.buf in
  for i = 0 to len - 1 do
    Bytes.unsafe_set dst (dst_off + i)
      (Bigarray.Array1.unsafe_get buf (src_off + i))
  done

let to_bytes a =
  let out = Bytes.create a.len in
  blit_to_bytes a ~src_off:0 out ~dst_off:0 ~len:a.len;
  out

let chunk_size = 64 * 1024

exception Write_error of string

let write_fd ?(write = Unix.write) a fd =
  if Bytes.length a.chunk = 0 then a.chunk <- Bytes.create chunk_size;
  let pos = ref 0 in
  while !pos < a.len do
    let n = min chunk_size (a.len - !pos) in
    blit_to_bytes a ~src_off:!pos a.chunk ~dst_off:0 ~len:n;
    let sent = ref 0 in
    while !sent < n do
      match write fd a.chunk !sent (n - !sent) with
      | 0 ->
        (* A blocking-socket write never legitimately returns 0 for a
           nonempty buffer; retrying would spin this thread forever.
           Surface it as a typed error, like the Unix_errors we already
           propagate. *)
        raise
          (Write_error
             (Printf.sprintf "zero-length write (%d of %d bytes unsent)"
                (a.len - !pos - !sent) a.len))
      | written -> sent := !sent + written
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    pos := !pos + n
  done

(* ---- Per-domain scratch ------------------------------------------------ *)

(* One served build's peak frame is the OAT container plus slack; keep up
   to this much backing store parked per domain between jobs, shrink
   anything larger back down after use. *)
let retain_capacity = 8 * 1024 * 1024

let scratch_key : (bool Atomic.t * t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (Atomic.make false, create ()))

let with_scratch f =
  let busy, arena = Domain.DLS.get scratch_key in
  if Atomic.compare_and_set busy false true then (
    Obs.Counter.incr "arena.scratch_reused";
    clear arena;
    Fun.protect
      ~finally:(fun () ->
        if capacity arena > retain_capacity then begin
          arena.buf <- alloc retain_capacity;
          arena.len <- 0;
          Obs.Counter.incr "arena.scratch_trimmed"
        end;
        Atomic.set busy false)
      (fun () -> f arena))
  else begin
    (* Another thread of this domain holds the scratch: correctness first,
       hand out a throwaway arena. *)
    Obs.Counter.incr "arena.scratch_contended";
    f (create ())
  end
