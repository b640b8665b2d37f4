type arch = Sb_isa.Arch_sig.arch_id

module Interp_sba = Sb_interp.Interp.Make (Sb_arch_sba.Arch)
module Interp_vlx = Sb_interp.Interp.Make (Sb_arch_vlx.Arch)
module Dbt_sba = Sb_dbt.Dbt.Make (Sb_arch_sba.Arch)
module Dbt_vlx = Sb_dbt.Dbt.Make (Sb_arch_vlx.Arch)
module Detailed_sba = Sb_detailed.Detailed.Make (Sb_arch_sba.Arch)
module Detailed_vlx = Sb_detailed.Detailed.Make (Sb_arch_vlx.Arch)
module Virt_sba = Sb_virt.Virt.Make_virt (Sb_arch_sba.Arch)
module Virt_vlx = Sb_virt.Virt.Make_virt (Sb_arch_vlx.Arch)
module Native_sba = Sb_virt.Virt.Make_native (Sb_arch_sba.Arch)
module Native_vlx = Sb_virt.Virt.Make_native (Sb_arch_vlx.Arch)

let pick arch ~sba ~vlx =
  match arch with Sb_isa.Arch_sig.Sba -> sba | Sb_isa.Arch_sig.Vlx -> vlx

let interp arch : Sb_sim.Engine.t =
  pick arch ~sba:(module Interp_sba : Sb_sim.Engine.ENGINE) ~vlx:(module Interp_vlx)

let dbt arch : Sb_sim.Engine.t =
  pick arch ~sba:(module Dbt_sba : Sb_sim.Engine.ENGINE) ~vlx:(module Dbt_vlx)

let detailed arch : Sb_sim.Engine.t =
  pick arch ~sba:(module Detailed_sba : Sb_sim.Engine.ENGINE) ~vlx:(module Detailed_vlx)

let virt arch : Sb_sim.Engine.t =
  pick arch ~sba:(module Virt_sba : Sb_sim.Engine.ENGINE) ~vlx:(module Virt_vlx)

let native arch : Sb_sim.Engine.t =
  pick arch ~sba:(module Native_sba : Sb_sim.Engine.ENGINE) ~vlx:(module Native_vlx)

let dbt_configured arch config : Sb_sim.Engine.t =
  match arch with
  | Sb_isa.Arch_sig.Sba ->
    (module Sb_dbt.Dbt.Make_configured
              (Sb_arch_sba.Arch)
              (struct
                let config = config
              end))
  | Sb_isa.Arch_sig.Vlx ->
    (module Sb_dbt.Dbt.Make_configured
              (Sb_arch_vlx.Arch)
              (struct
                let config = config
              end))

let dbt_version arch name =
  match Sb_dbt.Version.find name with
  | Some config -> dbt_configured arch config
  | None -> raise Not_found

let interp_configured arch config : Sb_sim.Engine.t =
  match arch with
  | Sb_isa.Arch_sig.Sba ->
    (module Sb_interp.Interp.Make_configured
              (Sb_arch_sba.Arch)
              (struct
                let config = config
              end))
  | Sb_isa.Arch_sig.Vlx ->
    (module Sb_interp.Interp.Make_configured
              (Sb_arch_vlx.Arch)
              (struct
                let config = config
              end))

(* Engine naming shared by the CLI and the serve protocol: the paper-role
   aliases (gem5 = detailed, kvm = virt, hw = native) and dbt@VERSION
   release names all resolve here, so every front end accepts the same
   spellings and rejects unknown ones with the same message. *)
let of_string arch s =
  match String.split_on_char '@' s with
  | [ "interp" ] -> Ok (interp arch)
  | [ "dbt" ] -> Ok (dbt arch)
  | [ "detailed" ] | [ "gem5" ] -> Ok (detailed arch)
  | [ "virt" ] | [ "kvm" ] -> Ok (virt arch)
  | [ "native" ] | [ "hw" ] -> Ok (native arch)
  | [ "dbt"; "" ] ->
    Error
      (Printf.sprintf "missing DBT version after \"dbt@\"; valid versions: %s"
         (String.concat ", " Sb_dbt.Version.names))
  | [ "dbt"; version ] -> (
    match Sb_dbt.Version.find version with
    | Some config -> Ok (dbt_configured arch config)
    | None ->
      Error
        (Printf.sprintf "unknown DBT version %S; valid versions: %s" version
           (String.concat ", " Sb_dbt.Version.names)))
  | _ -> Error (Printf.sprintf "unknown engine %S" s)

let canonical_name s =
  match String.split_on_char '@' s with
  | [ "gem5" ] -> "detailed"
  | [ "kvm" ] -> "virt"
  | [ "hw" ] -> "native"
  | [ "dbt"; version ] -> "dbt@" ^ Sb_dbt.Version.canonical version
  | _ -> s

let paper_set arch =
  match arch with
  | Sb_isa.Arch_sig.Sba ->
    [
      ("QEMU-DBT", dbt arch);
      ("SimIt-ARM", interp arch);
      ("Gem5", detailed arch);
      ("QEMU-KVM", virt arch);
      ("Hardware", native arch);
    ]
  | Sb_isa.Arch_sig.Vlx ->
    (* the paper's x86 table has no SimIt or Gem5 columns *)
    [ ("QEMU-DBT", dbt arch); ("QEMU-KVM", virt arch); ("Hardware", native arch) ]

let all_arches = [ Sb_isa.Arch_sig.Sba; Sb_isa.Arch_sig.Vlx ]

let arch_name arch = pick arch ~sba:"sba" ~vlx:"vlx"

let arch_of_name = function
  | "sba" | "sba32" | "arm" -> Ok Sb_isa.Arch_sig.Sba
  | "vlx" | "vlx32" | "x86" -> Ok Sb_isa.Arch_sig.Vlx
  | s -> Error (Printf.sprintf "unknown architecture %S (sba|vlx)" s)

let support arch : Support.t =
  pick arch ~sba:(module Sba_support : Support.SUPPORT) ~vlx:(module Vlx_support)
