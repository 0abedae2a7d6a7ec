open Varan_kernel
module Variant = Varan_nvx.Variant
module Rules = Varan_bpf.Rules
module Sysno = Varan_syscall.Sysno
module Flags = Varan_kernel.Flags

type lighttpd_rev = R2435 | R2436 | R2523 | R2524 | R2577 | R2578

let nr = Sysno.to_int

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Varan_syscall.Errno.name e)

(* Startup prologues reproducing each revision's syscall sequence. *)
let prologue rev api =
  match rev with
  | R2435 ->
    (* geteuid()/getegid() C library checks before touching files. *)
    ignore (Api.geteuid api);
    ignore (Api.getegid api)
  | R2436 ->
    (* issetugid() expands the check to all four ids (Listing 1). *)
    ignore (Api.geteuid api);
    ignore (Api.getuid api);
    ignore (Api.getegid api);
    ignore (Api.getgid api)
  | R2523 ->
    let fd = ok_exn "open urandom" (Api.openf api "/dev/urandom" Flags.o_rdonly) in
    ignore (ok_exn "read urandom" (Api.read api fd 16));
    ignore (Api.close api fd)
  | R2524 ->
    (* One additional read for the extra entropy source. *)
    let fd = ok_exn "open urandom" (Api.openf api "/dev/urandom" Flags.o_rdonly) in
    ignore (ok_exn "read urandom" (Api.read api fd 16));
    ignore (ok_exn "read urandom" (Api.read api fd 16));
    ignore (Api.close api fd)
  | R2577 ->
    let fd = ok_exn "open conf" (Api.openf api "/www/index.html" Flags.o_rdonly) in
    ignore (Api.close api fd)
  | R2578 ->
    (* The revision that sets FD_CLOEXEC on the descriptor. *)
    let fd = ok_exn "open conf" (Api.openf api "/www/index.html" Flags.o_rdonly) in
    ignore (ok_exn "fcntl" (Api.fcntl api fd Flags.f_setfd Flags.fd_cloexec));
    ignore (Api.close api fd)

(* The BPF filter permitting this revision's divergences from its
   predecessor, if any. *)
let lighttpd_rules_for = function
  | R2436 ->
    (* The paper's Listing 1 divergence: getuid/getgid insertions while
       the leader proceeds to getegid / the document stat. *)
    Some
      (Rules.allow_added_syscalls
         ~expected_leader:[ nr Sysno.Getegid; nr Sysno.Stat ]
         ~added:[ nr Sysno.Getuid; nr Sysno.Getgid ])
  | R2524 ->
    Some
      (Rules.allow_added_syscalls
         ~expected_leader:[ nr Sysno.Close ]
         ~added:[ nr Sysno.Read ])
  | R2578 ->
    Some
      (Rules.allow_added_syscalls
         ~expected_leader:[ nr Sysno.Close ]
         ~added:[ nr Sysno.Fcntl ])
  | R2577 ->
    (* For the reversed pairing (newer leader): the fcntl the leader
       performs has no counterpart here and may be skipped. *)
    Some (Rules.allow_removed_syscalls ~removed:[ nr Sysno.Fcntl ])
  | R2435 | R2523 -> None

let rev_name = function
  | R2435 -> "lighttpd-r2435"
  | R2436 -> "lighttpd-r2436"
  | R2523 -> "lighttpd-r2523"
  | R2524 -> "lighttpd-r2524"
  | R2577 -> "lighttpd-r2577"
  | R2578 -> "lighttpd-r2578"

let lighttpd_variant ~rev ~port ~expected_conns =
  let cfg =
    {
      Http_server.port;
      units = 1;
      style = Http_server.Event_loop;
      doc_path = "/www/index.html";
      parse_cycles = 29_000;
      access_log = None;
      expected_conns;
    }
  in
  let base = Http_server.make_body cfg () in
  let body ~unit_idx api =
    if unit_idx = 0 then prologue rev api;
    base ~unit_idx api
  in
  Variant.make
    ~profile:
      { Variant.code_bytes = 38_000; syscall_share = 0.008; code_seed = 12 }
    ?rules:(lighttpd_rules_for rev) (rev_name rev)
    { Variant.units = 1; unit_kind = Variant.Thread; body }

let redis_revision ~buggy ~name ~port ~expected_conns =
  let cfg =
    {
      Kv_server.port;
      units = 1;
      aof_path = None;
      work_cycles = 28_000;
      expected_conns;
      crash_on_hmget = buggy;
    }
  in
  Variant.make
    ~profile:
      { Variant.code_bytes = 35_000; syscall_share = 0.008; code_seed = 15 }
    name
    {
      Variant.units = 1;
      unit_kind = Variant.Thread;
      body = Kv_server.make_body cfg ();
    }

let setup_fs k =
  Vfs.add_file k "/var/.keep" "";
  Vfs.add_file k "/www/index.html" (String.make 4096 'p')
