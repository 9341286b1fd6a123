(* Machine state for the execution simulator: registers, flags, and a
   4-KiB-paged sparse memory. Page granularity is load-bearing: the set of
   touched pages is exactly the resident-memory measurement Table 5 needs.

   Values are native OCaml ints — the simulator models a 63-bit machine
   (DESIGN.md section 4.3); the compiler's constant folder uses the same
   arithmetic, so compile-time and run-time evaluation agree exactly. *)

let page_size = Calibro_codegen.Abi.page_size
let page_bits = 12

type t = {
  regs : int array;          (** x0..x30 *)
  mutable sp : int;
  mutable pc : int;
  mutable flag_n : bool;
  mutable flag_z : bool;
  mutable flag_c : bool;
  mutable flag_v : bool;
  pages : (int, Bytes.t) Hashtbl.t;
  mutable last_page_idx : int;  (** [last_page]'s index, or [min_int] *)
  mutable last_page : Bytes.t;
  mutable touched_exec_pages : (int, unit) Hashtbl.t;
      (** pages touched by instruction fetch (code residency) *)
  mutable last_exec_idx : int;  (** the page last added there *)
  mutable heap_next : int;   (** bump allocator cursor *)
  mutable log : int list;    (** output of pLogValue, reversed *)
}

let create () =
  { regs = Array.make 31 0;
    sp = Calibro_codegen.Abi.stack_top;
    pc = 0;
    flag_n = false; flag_z = false; flag_c = false; flag_v = false;
    pages = Hashtbl.create 64;
    last_page_idx = min_int;
    last_page = Bytes.empty;
    touched_exec_pages = Hashtbl.create 64;
    last_exec_idx = min_int;
    heap_next = Calibro_codegen.Abi.heap_base;
    log = [] }

(* x31 reads as 0 (zr) except through sp accessors. *)
let get_reg m r = if r = 31 then 0 else m.regs.(r)
let set_reg m r v = if r <> 31 then m.regs.(r) <- v

let get_reg_sp m r = if r = 31 then m.sp else m.regs.(r)
let set_reg_sp m r v = if r = 31 then m.sp <- v else m.regs.(r) <- v

(* ---- Memory ------------------------------------------------------------ *)

(* Pages are never dropped, so the page of the last access can be
   reused without a lookup; the same holds for executed pages below. *)
let page m addr =
  let idx = addr lsr page_bits in
  if idx = m.last_page_idx then m.last_page
  else begin
    let p =
      match Hashtbl.find_opt m.pages idx with
      | Some p -> p
      | None ->
        let p = Bytes.make page_size '\000' in
        Hashtbl.replace m.pages idx p;
        p
    in
    m.last_page_idx <- idx;
    m.last_page <- p;
    p
  end

let read_u8 m addr = Bytes.get_uint8 (page m addr) (addr land (page_size - 1))

let write_u8 m addr v =
  Bytes.set_uint8 (page m addr) (addr land (page_size - 1)) v

let read64 m addr =
  let off = addr land (page_size - 1) in
  if off <= page_size - 8 then
    Int64.to_int (Bytes.get_int64_le (page m addr) off)
  else begin
    let v = ref 0 in
    for b = 7 downto 0 do
      v := (!v lsl 8) lor read_u8 m (addr + b)
    done;
    !v
  end

let write64 m addr v =
  let off = addr land (page_size - 1) in
  if off <= page_size - 8 then
    Bytes.set_int64_le (page m addr) off (Int64.of_int v)
  else
    for b = 0 to 7 do
      write_u8 m (addr + b) ((v lsr (8 * b)) land 0xff)
    done

let read32 m addr =
  let off = addr land (page_size - 1) in
  if off <= page_size - 4 then
    Int32.to_int (Bytes.get_int32_le (page m addr) off) land 0xFFFFFFFF
  else begin
    let v = ref 0 in
    for b = 3 downto 0 do
      v := (!v lsl 8) lor read_u8 m (addr + b)
    done;
    !v
  end

let write_bytes m addr buf =
  Bytes.iteri (fun i c -> write_u8 m (addr + i) (Char.code c)) buf

let read_string m addr =
  (* string pool layout: [u32 length][bytes] *)
  let len = read32 m addr in
  String.init len (fun i -> Char.chr (read_u8 m (addr + 4 + i)))

let touch_exec m addr =
  let idx = addr lsr page_bits in
  if idx <> m.last_exec_idx then begin
    Hashtbl.replace m.touched_exec_pages idx ();
    m.last_exec_idx <- idx
  end

let touched_exec_page_count m = Hashtbl.length m.touched_exec_pages

(* Pages touched by data access inside [lo, hi). *)
let touched_data_pages_in m ~lo ~hi =
  Hashtbl.fold
    (fun idx _ acc ->
      let addr = idx lsl page_bits in
      if addr >= lo && addr < hi then acc + 1 else acc)
    m.pages 0

(* ---- Flags (cmp = subs) ------------------------------------------------ *)

(* Unsigned comparison on the simulated machine: negative values sit above
   all non-negative ones. *)
let unsigned_ge a b =
  if a >= 0 && b >= 0 then a >= b
  else if a < 0 && b < 0 then a >= b
  else a < 0

let set_flags_sub m a b =
  let r = a - b in
  m.flag_n <- r < 0;
  m.flag_z <- r = 0;
  m.flag_c <- unsigned_ge a b;
  m.flag_v <- false (* native ints do not overflow in the modeled range *)

let set_flags_logic m r =
  m.flag_n <- r < 0;
  m.flag_z <- r = 0;
  m.flag_c <- false;
  m.flag_v <- false

let cond_holds m (c : Calibro_aarch64.Isa.cond) =
  let open Calibro_aarch64.Isa in
  match c with
  | EQ -> m.flag_z
  | NE -> not m.flag_z
  | HS -> m.flag_c
  | LO -> not m.flag_c
  | MI -> m.flag_n
  | PL -> not m.flag_n
  | VS -> m.flag_v
  | VC -> not m.flag_v
  | HI -> m.flag_c && not m.flag_z
  | LS -> not (m.flag_c && not m.flag_z)
  | GE -> m.flag_n = m.flag_v
  | LT -> m.flag_n <> m.flag_v
  | GT -> (not m.flag_z) && m.flag_n = m.flag_v
  | LE -> m.flag_z || m.flag_n <> m.flag_v
  | AL -> true
