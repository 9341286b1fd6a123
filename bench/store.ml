(* bench store: fleet-wide bytes saved by the store-wide shared
   dictionary (the store-level view of the paper's Table 6).

   Per-app LTBO already de-duplicates within one app; this measures what
   prelink-style sharing buys *across* the six evaluation apps: mine the
   dictionary over all six CTO+LTBO+PlOpti(8) builds, rebuild every app
   bound against it, and compare total shipped bytes —

     saved = sum(per-app text)  -  (sum(dict-bound text) + dict image)

   where the dictionary image is charged once, the way a device maps it
   once for every installed app. Correctness is measured before size:
   each dict-bound app runs through the differential oracle against its
   baseline build, so a dictionary that saves bytes by miscompiling
   fails `bench store` (and the gate) unconditionally.

   Sizes are deterministic (seeded workload, seeded partition), so the
   committed baseline keeps the saved-byte count as an exact floor: the
   gate fails on any shrink, with no cross-machine slack. *)

open Calibro_core
open Calibro_workload
module Dict = Calibro_dict.Dict
module Oracle = Calibro_check.Oracle
module Json = Calibro_obs.Json

let pl8 = Config.cto_ltbo_pl ~k:8 ()

type app_row = {
  sa_name : string;
  sa_plain : int;  (* per-app pl8 text: every outlined body shipped locally *)
  sa_bound : int;  (* text with shared bodies bound to dictionary slots *)
  sa_vm_ok : bool; (* oracle: dict-bound run indistinguishable from baseline *)
}

type result = {
  so_apps : app_row list;
  so_bodies : int;
  so_dict_bytes : int;  (* the shared image, charged once *)
  so_plain_total : int;
  so_bound_total : int;
  so_saved : int;
  so_digest : string;
}

let measure () : result =
  let plains =
    List.map
      (fun (p : Appgen.profile) ->
        Printf.eprintf "[store] building %s...\n%!" p.Appgen.p_name;
        let apk = (Appgen.generate p).Appgen.app in
        (apk, Pipeline.build ~config:pl8 apk))
      Apps.all
  in
  let d = Dict.of_oats (List.map (fun (_, b) -> b.Pipeline.b_oat) plains) in
  let ld = Dict.linker_dict d in
  let rows =
    List.map
      (fun (apk, plain) ->
        let name = apk.Calibro_dex.Dex_ir.apk_name in
        Printf.eprintf "[store] binding and verifying %s...\n%!" name;
        let bound = Pipeline.build ~config:pl8 ~dict:ld apk in
        let vm_ok =
          match Oracle.run ~configs:[ pl8 ] ~dict:d apk with
          | Ok r -> r.Oracle.r_divergences = []
          | Error _ -> false
        in
        { sa_name = name;
          sa_plain = Pipeline.text_size plain;
          sa_bound = Pipeline.text_size bound;
          sa_vm_ok = vm_ok })
      plains
  in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let plain_total = total (fun r -> r.sa_plain)
  and bound_total = total (fun r -> r.sa_bound) in
  { so_apps = rows;
    so_bodies = Dict.n_bodies d;
    so_dict_bytes = Dict.size d;
    so_plain_total = plain_total;
    so_bound_total = bound_total;
    so_saved = plain_total - (bound_total + Dict.size d);
    so_digest = Dict.digest d }

let report r =
  Printf.printf "  dictionary %s: %d bodies, %d bytes\n" r.so_digest
    r.so_bodies r.so_dict_bytes;
  List.iter
    (fun a ->
      Printf.printf "  %-9s text %7d -> %7d  (-%d bytes)  vm %s\n" a.sa_name
        a.sa_plain a.sa_bound (a.sa_plain - a.sa_bound)
        (if a.sa_vm_ok then "faithful" else "DIVERGES"))
    r.so_apps;
  Printf.printf
    "  fleet: %d per-app bytes -> %d bound + %d dictionary = %d saved\n%!"
    r.so_plain_total r.so_bound_total r.so_dict_bytes r.so_saved

let failures r =
  Gate.violated
    (List.map
       (fun a ->
         ( a.sa_vm_ok,
           Printf.sprintf "store: dict-bound %s diverged from its baseline in \
                           the VM" a.sa_name ))
       r.so_apps
     @ [ ( r.so_saved > 0,
           Printf.sprintf "store: the shared dictionary saves no bytes over \
                           per-app outlining (%d)" r.so_saved ) ])

let section r =
  Json.Obj
    [ ("bodies", Json.Int r.so_bodies);
      ("dict_bytes", Json.Int r.so_dict_bytes);
      ("plain_total", Json.Int r.so_plain_total);
      ("bound_total", Json.Int r.so_bound_total);
      ("saved_bytes", Json.Int r.so_saved);
      ("vm_ok", Json.Bool (List.for_all (fun a -> a.sa_vm_ok) r.so_apps)) ]
