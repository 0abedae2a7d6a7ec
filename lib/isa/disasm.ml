type item = { addr : int; insn : Insn.t option; len : int }

let sweep buf =
  let len = Bytes.length buf in
  let rec go addr acc =
    if addr >= len then List.rev acc
    else
      match Insn.decode buf addr with
      | Some (insn, ilen) ->
        go (addr + ilen) ({ addr; insn = Some insn; len = ilen } :: acc)
      | None -> go (addr + 1) ({ addr; insn = None; len = 1 } :: acc)
  in
  go 0 []

let instructions buf =
  List.filter_map
    (fun it -> match it.insn with Some i -> Some (it.addr, i) | None -> None)
    (sweep buf)

type scan = { targets : (int, unit) Hashtbl.t; syscalls : int list }

let scan buf =
  let len = Bytes.length buf in
  let targets = Hashtbl.create 64 in
  let rec go addr syscalls =
    if addr >= len then List.rev syscalls
    else
      match Insn.decode buf addr with
      | None -> go (addr + 1) syscalls
      | Some (Insn.Syscall, ilen) -> go (addr + ilen) (addr :: syscalls)
      | Some (insn, ilen) ->
        (match Insn.branch_target ~at:addr insn with
        | Some t -> Hashtbl.replace targets t ()
        | None -> ());
        go (addr + ilen) syscalls
  in
  let syscalls = go 0 [] in
  { targets; syscalls }

let branch_targets buf = (scan buf).targets
let syscall_sites buf = (scan buf).syscalls

let pp_listing ppf buf =
  List.iter
    (fun it ->
      match it.insn with
      | Some insn -> Format.fprintf ppf "%04x: %a@." it.addr Insn.pp insn
      | None ->
        Format.fprintf ppf "%04x: .byte 0x%02x@." it.addr
          (Char.code (Bytes.get buf it.addr)))
    (sweep buf)
