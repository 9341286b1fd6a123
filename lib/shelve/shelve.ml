(* Profile-driven method shelving (see shelve.mli).

   The split is deliberately placed *after* per-method compilation and
   *before* LTBO mining:
   - after compilation, so the per-method cache keys are identical to an
     unshelved build's and both share one cache population;
   - before mining, so the suffix tree never sees cold bodies — outlining
     works the surviving warm set only, which is the composition the
     release-train workload measures. *)

open Calibro_dex.Dex_ir
module Isa = Calibro_aarch64.Isa
module Encode = Calibro_aarch64.Encode
module Decode = Calibro_aarch64.Decode
module Compiled_method = Calibro_codegen.Compiled_method
module Meta = Calibro_codegen.Meta
module Linker = Calibro_oat.Linker
module Profile = Calibro_profile.Profile
module Obs = Calibro_obs.Obs

exception Shelve_error of string

type plan = {
  sp_coverage : float;
  sp_warm : method_ref list;
  sp_digest : string;
}

let compare_ref (a : method_ref) (b : method_ref) =
  compare (a.class_name, a.method_name) (b.class_name, b.method_name)

(* The policy digest is part of the served-bytes contract across
   processes, like the dictionary digest. *)
let digest ~coverage ~warm =
  let b = Buffer.create 256 in
  Buffer.add_string b "calibro-shelve-v1\n";
  Buffer.add_string b (Printf.sprintf "coverage=%.6f\n" coverage);
  List.iter
    (fun (m : method_ref) ->
      Buffer.add_string b m.class_name;
      Buffer.add_char b ' ';
      Buffer.add_string b m.method_name;
      Buffer.add_char b '\n')
    warm;
  Calibro_chash.Chash.(to_hex (string (Buffer.contents b)))

let plan ~coverage ~warm =
  if not (coverage >= 0.0 && coverage <= 1.0) then (* also rejects nan *)
    raise
      (Shelve_error
         (Printf.sprintf "shelve coverage %g outside [0, 1]" coverage));
  let warm =
    List.sort_uniq compare_ref warm
  in
  { sp_coverage = coverage; sp_warm = warm; sp_digest = digest ~coverage ~warm }

let of_profile ~coverage profile =
  plan ~coverage ~warm:(Profile.hot_set ~coverage profile)

(* ---- The stub ---------------------------------------------------------- *)

let stub_insns = 2
let stub_bytes = stub_insns * Isa.instr_bytes
let stub_magic = Calibro_codegen.Abi.shelf_stub_magic

let stub_spec ~index =
  if index < 0 || index > 0xffff then
    raise (Shelve_error (Printf.sprintf "shelf index %d out of range" index));
  [ Isa.Mov_wide
      { kind = Isa.MOVZ; size = Isa.X; rd = Isa.x17; imm16 = index; hw = 0 };
    Isa.Brk stub_magic ]

let stub_code ~index = Encode.to_bytes (stub_spec ~index)

let decode_stub code ~offset =
  if offset < 0 || offset + stub_bytes > Bytes.length code then None
  else
    let w i = Encode.word_of_bytes code (offset + (i * Isa.instr_bytes)) in
    match (Decode.decode (w 0), Decode.decode (w 1)) with
    | ( Isa.Mov_wide { kind = Isa.MOVZ; size = Isa.X; rd; imm16; hw = 0 },
        Isa.Brk m )
      when rd = Isa.x17 && m = stub_magic ->
      Some imm16
    | _ -> None

(* ---- The split --------------------------------------------------------- *)

type split = {
  sv_warm : Compiled_method.t list;
  sv_stubs : Compiled_method.t list;
  sv_shelf : Linker.shelve_input option;
}

let shelvable ~warm_tbl (cm : Compiled_method.t) =
  (not (Compiled_method.is_native cm))
  && Bytes.length cm.Compiled_method.code > stub_bytes
  && not (Hashtbl.mem warm_tbl cm.Compiled_method.name)

let split ~plan (methods : Compiled_method.t list) : split =
  let warm_tbl = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace warm_tbl m ()) plan.sp_warm;
  let cold, warm = List.partition (shelvable ~warm_tbl) methods in
  (* Shelf indices are assigned in slot order, matching the linker's image
     layout, so stub index = position of the method's shelf entry. *)
  let cold =
    List.sort
      (fun (a : Compiled_method.t) b ->
        compare a.Compiled_method.slot b.Compiled_method.slot)
      cold
  in
  let stubs, bodies =
    List.mapi
      (fun index (cm : Compiled_method.t) ->
        let stub =
          { cm with
            Compiled_method.code = stub_code ~index;
            relocs = [];
            meta = { Meta.empty with Meta.has_indirect_jump = true };
            stackmap = [];
            cto_hits = [] }
        in
        let body =
          { Linker.sb_name = cm.Compiled_method.name;
            sb_slot = cm.Compiled_method.slot;
            sb_code = cm.Compiled_method.code;
            sb_relocs = cm.Compiled_method.relocs }
        in
        (stub, body))
      cold
    |> List.split
  in
  Obs.Counter.add "shelve.shelved" (List.length stubs);
  Obs.Counter.add "shelve.kept_warm" (List.length warm);
  { sv_warm = warm;
    sv_stubs = stubs;
    sv_shelf =
      (match bodies with
       | [] -> None
       | _ -> Some { Linker.shv_digest = plan.sp_digest; shv_bodies = bodies }) }

let shelved_count s = List.length s.sv_stubs
