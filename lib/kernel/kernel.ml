open Types
module E = Varan_sim.Engine
module Cond = E.Cond
module Prof = Varan_sim.Prof
module Phase = Varan_obs.Profile
module Sysno = Varan_syscall.Sysno
module Args = Varan_syscall.Args
module Errno = Varan_syscall.Errno
module Cost = Varan_cycles.Cost
module Prng = Varan_util.Prng

type fd_grant = { granted : (int * ofile) list }

let create ?(cost = Cost.default) ?(link_latency = 0) ?(seed = 42) eng =
  let root = Directory (Hashtbl.create 16) in
  let k =
    {
      eng;
      cost;
      root;
      listeners = Hashtbl.create 16;
      futexes = Hashtbl.create 16;
      procs = Hashtbl.create 16;
      next_pid = 1;
      next_ofile = 1;
      next_ephemeral_port = 32768;
      rng = Prng.create seed;
      link_latency;
      epoch_seconds = 1_700_000_000;
    }
  in
  (match root with
  | Directory d ->
    let dev = Hashtbl.create 8 in
    Hashtbl.replace dev "null" Dev_null;
    Hashtbl.replace dev "zero" Dev_zero;
    Hashtbl.replace dev "urandom" Dev_urandom;
    Hashtbl.replace d "dev" (Directory dev);
    Hashtbl.replace d "tmp" (Directory (Hashtbl.create 8))
  | _ -> assert false);
  k

let engine k = k.eng
let cost k = k.cost

let new_proc k ?parent pname =
  let pid = k.next_pid in
  k.next_pid <- k.next_pid + 1;
  let p =
    {
      pid;
      pname;
      fds = Hashtbl.create 16;
      cwd = "/";
      brk_addr = 0x0060_0000;
      mmap_next = 0x7f00_0000_0000;
      sighandlers = Hashtbl.create 8;
      exited = false;
      exit_code = 0;
      umask = 0o022;
      parent;
      children = [];
      exit_cond = Cond.create (Printf.sprintf "proc-%d-exit" pid);
      tasks = [];
      pending_signals = [];
      uid = 1000;
      gid = 1000;
    }
  in
  (match parent with Some pp -> pp.children <- p :: pp.children | None -> ());
  Hashtbl.replace k.procs pid p;
  p

let register_task _k proc tid = proc.tasks <- tid :: proc.tasks

let new_ofile k kind =
  let id = k.next_ofile in
  k.next_ofile <- k.next_ofile + 1;
  { of_id = id; kind; offset = 0; flags = 0; refcount = 1 }

let alloc_fd proc =
  let rec scan fd = if Hashtbl.mem proc.fds fd then scan (fd + 1) else fd in
  scan 0

let install_fd_at proc fd ofile =
  ofile.refcount <- ofile.refcount + 1;
  Hashtbl.replace proc.fds fd { fde_ofile = ofile; fde_cloexec = false }

let add_fd proc ofile =
  let fd = alloc_fd proc in
  Hashtbl.replace proc.fds fd { fde_ofile = ofile; fde_cloexec = false };
  fd

let fork_proc k parent pname =
  let child = new_proc k ~parent pname in
  child.cwd <- parent.cwd;
  child.umask <- parent.umask;
  Hashtbl.iter
    (fun fd entry ->
      entry.fde_ofile.refcount <- entry.fde_ofile.refcount + 1;
      Hashtbl.replace child.fds fd
        { fde_ofile = entry.fde_ofile; fde_cloexec = entry.fde_cloexec })
    parent.fds;
  child

(* ------------------------------------------------------------------ *)
(* Readiness and wake-ups                                             *)
(* ------------------------------------------------------------------ *)

let rec ready_read ofile =
  match ofile.kind with
  | K_file _ -> true
  | K_pipe_r p -> (not (Bytequeue.is_empty p.p_q)) || p.p_writers = 0
  | K_pipe_w _ -> false
  | K_sock ep -> (not (Bytequeue.is_empty ep.ep_rx)) || ep.ep_peer_closed
  | K_listen l -> not (Queue.is_empty l.l_backlog)
  | K_epoll e -> any_ready e 0

and ready_write ofile =
  match ofile.kind with
  | K_file _ -> true
  | K_pipe_r _ -> false
  | K_pipe_w p -> Bytequeue.space p.p_q > 0 || p.p_readers = 0
  | K_sock ep -> (
    if ep.ep_closed then false
    else
      match ep.ep_peer with
      | None -> false
      | Some peer -> peer.ep_peer_closed || Bytequeue.space peer.ep_rx > 0)
  | K_listen _ -> false
  | K_epoll _ -> false

(* What of its mask a watch finds ready: EPOLLIN and/or EPOLLOUT. *)
and watch_events w =
  let ev =
    if w.w_events land Flags.epollin <> 0 && ready_read w.w_ofile then
      Flags.epollin
    else 0
  in
  if w.w_events land Flags.epollout <> 0 && ready_write w.w_ofile then
    ev lor Flags.epollout
  else ev

(* An epoll is readable when a watch on its ready list is ready. Every
   ready watch is queued, so the list decides, as it does for
   [epoll_wait]; nothing is dequeued here. *)
and any_ready e i =
  i < e.e_nready && (watch_events e.e_ready.(i) <> 0 || any_ready e (i + 1))

(* ------------------------------------------------------------------ *)
(* Epoll ready lists                                                   *)
(* ------------------------------------------------------------------ *)

(* A regular file or device never notifies: it is always ready, so its
   watches stay queued for good and every [epoll_wait] re-checks them,
   as a full scan would. *)
let never_notifies ofile =
  match ofile.kind with
  | K_file _ -> true
  | K_pipe_r _ | K_pipe_w _ | K_sock _ | K_listen _ | K_epoll _ -> false

(* Put [w] on its epoll's ready list, keeping the list sorted by fd. *)
let queue_watch w =
  if not w.w_queued then begin
    w.w_queued <- true;
    let e = w.w_ep in
    let n = e.e_nready in
    if n = Array.length e.e_ready then begin
      let bigger = Array.make (max 8 (2 * n)) w in
      Array.blit e.e_ready 0 bigger 0 n;
      e.e_ready <- bigger
    end;
    let a = e.e_ready in
    let i = ref n in
    while !i > 0 && a.(!i - 1).w_fd > w.w_fd do
      a.(!i) <- a.(!i - 1);
      decr i
    done;
    a.(!i) <- w;
    e.e_nready <- n + 1
  end

let unqueue_watch w =
  if w.w_queued then begin
    w.w_queued <- false;
    let e = w.w_ep in
    let a = e.e_ready and n = e.e_nready - 1 in
    let i = ref 0 in
    while a.(!i) != w do
      incr i
    done;
    Array.blit a (!i + 1) a !i (n - !i);
    e.e_nready <- n
  end

(* A readiness notification: the object behind [w] may have become
   ready. Queue the watch, and wake the epoll's waiters only if the
   watch's own mask is now met; a change that only another mask would
   see (a drained peer buffer under an EPOLLIN-only watch) wakes
   nobody. A met watch makes its epoll readable, so the epolls watching
   that one are notified in turn. *)
let rec notify_watch w =
  queue_watch w;
  if watch_events w <> 0 then begin
    Cond.broadcast w.w_ep.e_cond;
    List.iter notify_watch w.w_ep.e_watchers
  end

let notify_watches ws = List.iter notify_watch ws

let wake_sock_readers ep =
  Cond.broadcast ep.ep_readable;
  notify_watches ep.ep_watchers

let wake_sock_writers ep =
  Cond.broadcast ep.ep_writable;
  notify_watches ep.ep_watchers

let nonblocking ofile = ofile.flags land Flags.o_nonblock <> 0

(* ------------------------------------------------------------------ *)
(* Socket delivery with optional link latency                          *)
(* ------------------------------------------------------------------ *)

(* Append payload to the peer's receive queue. With a non-zero link
   latency the append runs from a timed engine entry, so the bytes
   become visible [link_latency] cycles later, preserving order because
   engine entries at increasing times run in order. *)
let deliver_to_peer k (peer : endpoint) (data : Bytes.t) =
  let append () =
    ignore (Bytequeue.write peer.ep_rx data);
    wake_sock_readers peer
  in
  if k.link_latency = 0 then append () else E.after k.link_latency append

let deliver_fin k (peer : endpoint) =
  let fin () =
    peer.ep_peer_closed <- true;
    wake_sock_readers peer;
    wake_sock_writers peer
  in
  if k.link_latency = 0 then fin () else E.after k.link_latency fin

(* ------------------------------------------------------------------ *)
(* Release on close                                                    *)
(* ------------------------------------------------------------------ *)

let release_ofile k ofile =
  ofile.refcount <- ofile.refcount - 1;
  if ofile.refcount <= 0 then begin
    match ofile.kind with
    | K_file _ -> ()
    | K_pipe_r p ->
      p.p_readers <- p.p_readers - 1;
      if p.p_readers = 0 then begin
        Cond.broadcast p.p_writable;
        notify_watches p.p_watchers
      end
    | K_pipe_w p ->
      p.p_writers <- p.p_writers - 1;
      if p.p_writers = 0 then begin
        Cond.broadcast p.p_readable;
        notify_watches p.p_watchers
      end
    | K_sock ep ->
      if not ep.ep_closed then begin
        ep.ep_closed <- true;
        match ep.ep_peer with
        | Some peer -> deliver_fin k peer
        | None -> ()
      end
    | K_listen l ->
      l.l_closed <- true;
      Hashtbl.remove k.listeners l.l_port;
      Cond.broadcast l.l_cond
    | K_epoll _ -> ()
  end

let kill_proc k proc signo =
  if not proc.exited then begin
    proc.exited <- true;
    proc.exit_code <- 128 + signo;
    Hashtbl.iter (fun _ entry -> release_ofile k entry.fde_ofile) proc.fds;
    Hashtbl.reset proc.fds;
    (match proc.parent with
    | Some parent -> Cond.broadcast parent.exit_cond
    | None -> ());
    List.iter (fun tid -> E.kill k.eng tid) proc.tasks
  end

(* ------------------------------------------------------------------ *)
(* Helpers for the dispatcher                                          *)
(* ------------------------------------------------------------------ *)

let fd_entry proc fd = Hashtbl.find_opt proc.fds fd

let with_fd proc fd f =
  match fd_entry proc fd with
  | None -> Args.err Errno.EBADF
  | Some entry -> f entry

let charge_out k bytes =
  E.consume
    (Cost.copy_cycles ~rate_c100:k.cost.Cost.copy_per_byte_c100 bytes)

let grant fds result =
  { result with Args.fd_object = Some (Obj.repr { granted = fds }) }

let grant_of_result (r : Args.result) : fd_grant option =
  match r.Args.fd_object with
  | None -> None
  | Some o -> Some (Obj.obj o : fd_grant)

let install_grant k proc g =
  List.iter
    (fun (fd, ofile) ->
      (* A stale descriptor at this number (e.g. a replayed-but-not-
         executed close left it behind) is released first. *)
      (match fd_entry proc fd with
      | Some old ->
        Hashtbl.remove proc.fds fd;
        release_ofile k old.fde_ofile
      | None -> ());
      install_fd_at proc fd ofile)
    g.granted

(* ------------------------------------------------------------------ *)
(* Descriptor-table snapshots (checkpoint/restore)                     *)
(* ------------------------------------------------------------------ *)

type fd_snapshot = (int * ofile * bool) list

(* The entries reference the shared open-file descriptions by identity —
   exactly what a replayed grant would install — so a snapshot restored
   into a fresh process yields the same table a full tape replay would
   have built. *)
let snapshot_fds proc =
  Hashtbl.fold
    (fun fd e acc -> (fd, e.fde_ofile, e.fde_cloexec) :: acc)
    proc.fds []

let restore_fds k proc snap =
  List.iter
    (fun (fd, ofile, cloexec) ->
      (match fd_entry proc fd with
      | Some old ->
        Hashtbl.remove proc.fds fd;
        release_ofile k old.fde_ofile
      | None -> ());
      install_fd_at proc fd ofile;
      (Hashtbl.find proc.fds fd).fde_cloexec <- cloexec)
    snap

let fd_snapshot_count = List.length

let now_ns k =
  let cycles = Int64.to_float (E.now k.eng) in
  let ns = cycles /. k.cost.Cost.cpu_ghz in
  Int64.add
    (Int64.mul (Int64.of_int k.epoch_seconds) 1_000_000_000L)
    (Int64.of_float ns)

(* Simulated-process-local time: based on the calling task's clock. *)
let task_now_ns k =
  let cycles = Int64.to_float (E.now_cycles ()) in
  let ns = cycles /. k.cost.Cost.cpu_ghz in
  Int64.add
    (Int64.mul (Int64.of_int k.epoch_seconds) 1_000_000_000L)
    (Int64.of_float ns)

let put_le64 b ofs v =
  for i = 0 to 7 do
    Bytes.set b (ofs + i)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  done

let encode_stat ~size ~is_dir =
  (* A 144-byte struct stat with st_size at offset 48 and st_mode at 24,
     like x86-64 glibc's layout. *)
  let b = Bytes.make 144 '\000' in
  put_le64 b 48 (Int64.of_int size);
  put_le64 b 24 (Int64.of_int (if is_dir then 0o040755 else 0o100644));
  b

let random_bytes k n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (Prng.int k.rng 256))
  done;
  b

let proc_alive p = not p.exited
let fd_count p = Hashtbl.length p.fds

let set_nonblock proc fd v =
  match fd_entry proc fd with
  | None -> Error Errno.EBADF
  | Some e ->
    let o = e.fde_ofile in
    o.flags <-
      (if v then o.flags lor Flags.o_nonblock
       else o.flags land lnot Flags.o_nonblock);
    Ok ()

(* ------------------------------------------------------------------ *)
(* Blocking primitives                                                 *)
(* ------------------------------------------------------------------ *)

(* Wait until [ready ()] or, for non-blocking descriptors, fail with
   EAGAIN. The condition is re-checked after every wake-up because
   several waiters may race for the same bytes. *)
let block_until ~nonblock cond ready =
  if ready () then Ok ()
  else if nonblock then Error Errno.EAGAIN
  else begin
    (* Every blocking syscall funnels through here, so this is where the
       profile learns how much vtime tasks spend parked inside the
       kernel (per-object conds — what would be kernel-table contention
       on real hardware). *)
    let t0 = Prof.mark () in
    let rec loop () =
      if ready () then Ok ()
      else begin
        Cond.wait cond;
        loop ()
      end
    in
    let r = loop () in
    Prof.charge_wait Phase.kernel_wait t0;
    r
  end

(* ------------------------------------------------------------------ *)
(* The dispatcher                                                      *)
(* ------------------------------------------------------------------ *)

let do_read k proc args =
  let fd = Args.int_arg args 0 in
  let want = Args.buf_out_arg args 1 in
  with_fd proc fd (fun entry ->
      let o = entry.fde_ofile in
      match o.kind with
      | K_file (Regular r) ->
        let size = Bytes.length r.content in
        let n = max 0 (min want (size - o.offset)) in
        let out = Bytes.sub r.content o.offset n in
        o.offset <- o.offset + n;
        charge_out k n;
        Args.ok_out n out
      | K_file Dev_null -> Args.ok_out 0 Bytes.empty
      | K_file Dev_zero ->
        charge_out k want;
        Args.ok_out want (Bytes.make want '\000')
      | K_file Dev_urandom ->
        charge_out k want;
        Args.ok_out want (random_bytes k want)
      | K_file (Directory _) -> Args.err Errno.EISDIR
      | K_pipe_r p -> (
        let ready () = (not (Bytequeue.is_empty p.p_q)) || p.p_writers = 0 in
        match block_until ~nonblock:(nonblocking o) p.p_readable ready with
        | Error e -> Args.err e
        | Ok () ->
          let out = Bytequeue.read p.p_q want in
          Cond.broadcast p.p_writable;
          notify_watches p.p_watchers;
          charge_out k (Bytes.length out);
          Args.ok_out (Bytes.length out) out)
      | K_pipe_w _ -> Args.err Errno.EBADF
      | K_sock ep -> (
        let ready () =
          (not (Bytequeue.is_empty ep.ep_rx)) || ep.ep_peer_closed
        in
        match block_until ~nonblock:(nonblocking o) ep.ep_readable ready with
        | Error e -> Args.err e
        | Ok () ->
          let out = Bytequeue.read ep.ep_rx want in
          (match ep.ep_peer with
          | Some peer -> wake_sock_writers peer
          | None -> ());
          notify_watches ep.ep_watchers;
          charge_out k (Bytes.length out);
          Args.ok_out (Bytes.length out) out)
      | K_listen _ -> Args.err Errno.EINVAL
      | K_epoll _ -> Args.err Errno.EINVAL)

let do_write k proc args =
  let fd = Args.int_arg args 0 in
  let data = Args.buf_in_arg args 1 in
  with_fd proc fd (fun entry ->
      let o = entry.fde_ofile in
      match o.kind with
      | K_file (Regular r) ->
        let len = Bytes.length data in
        let pos = if o.flags land Flags.o_append <> 0 then Bytes.length r.content else o.offset in
        let newsize = max (Bytes.length r.content) (pos + len) in
        let content =
          if newsize > Bytes.length r.content then begin
            let bigger = Bytes.make newsize '\000' in
            Bytes.blit r.content 0 bigger 0 (Bytes.length r.content);
            bigger
          end
          else r.content
        in
        Bytes.blit data 0 content pos len;
        r.content <- content;
        o.offset <- pos + len;
        Args.ok len
      | K_file Dev_null -> Args.ok (Bytes.length data)
      | K_file Dev_zero -> Args.ok (Bytes.length data)
      | K_file Dev_urandom -> Args.ok (Bytes.length data)
      | K_file (Directory _) -> Args.err Errno.EISDIR
      | K_pipe_w p -> (
        if p.p_readers = 0 then Args.err Errno.EPIPE
        else
          let ready () = Bytequeue.space p.p_q > 0 || p.p_readers = 0 in
          match block_until ~nonblock:(nonblocking o) p.p_writable ready with
          | Error e -> Args.err e
          | Ok () ->
            if p.p_readers = 0 then Args.err Errno.EPIPE
            else begin
              let n = Bytequeue.write p.p_q data in
              Cond.broadcast p.p_readable;
              notify_watches p.p_watchers;
              Args.ok n
            end)
      | K_pipe_r _ -> Args.err Errno.EBADF
      | K_sock ep -> (
        if ep.ep_closed then Args.err Errno.EPIPE
        else
          match ep.ep_peer with
          | None -> Args.err Errno.ENOTCONN
          | Some peer ->
            if peer.ep_closed then Args.err Errno.EPIPE
            else begin
              (* Flow control against the peer's receive buffer. *)
              let ready () =
                peer.ep_closed || Bytequeue.space peer.ep_rx > 0
              in
              match
                block_until ~nonblock:(nonblocking o) ep.ep_writable ready
              with
              | Error e -> Args.err e
              | Ok () ->
                if peer.ep_closed then Args.err Errno.EPIPE
                else begin
                  let room = Bytequeue.space peer.ep_rx in
                  let n = min room (Bytes.length data) in
                  deliver_to_peer k peer (Bytes.sub data 0 n);
                  Args.ok n
                end
            end)
      | K_listen _ -> Args.err Errno.EINVAL
      | K_epoll _ -> Args.err Errno.EINVAL)

let do_open k proc args =
  let path = Args.str_arg args 0 in
  let flags = Args.int_arg args 1 in
  let node =
    if flags land Flags.o_creat <> 0 then Vfs.create_file k ~cwd:proc.cwd path
    else Vfs.lookup k ~cwd:proc.cwd path
  in
  match node with
  | Error e -> Args.err e
  | Ok node ->
    (match node with
    | Regular r when flags land Flags.o_trunc <> 0 -> r.content <- Bytes.empty
    | _ -> ());
    let o = new_ofile k (K_file node) in
    o.flags <- flags;
    let fd = add_fd proc o in
    grant [ (fd, o) ] (Args.ok fd)

let do_close k proc args =
  let fd = Args.int_arg args 0 in
  if fd < 0 then Args.err Errno.EBADF
  else
    with_fd proc fd (fun entry ->
        Hashtbl.remove proc.fds fd;
        release_ofile k entry.fde_ofile;
        Args.ok 0)

let do_stat k proc args =
  let path = Args.str_arg args 0 in
  match Vfs.lookup k ~cwd:proc.cwd path with
  | Error e -> Args.err e
  | Ok node ->
    let is_dir = match node with Directory _ -> true | _ -> false in
    Args.ok_out 0 (encode_stat ~size:(Vfs.file_size node) ~is_dir)

let do_fstat _k proc args =
  let fd = Args.int_arg args 0 in
  with_fd proc fd (fun entry ->
      match entry.fde_ofile.kind with
      | K_file node ->
        let is_dir = match node with Directory _ -> true | _ -> false in
        Args.ok_out 0 (encode_stat ~size:(Vfs.file_size node) ~is_dir)
      | _ -> Args.ok_out 0 (encode_stat ~size:0 ~is_dir:false))

let do_lseek _k proc args =
  let fd = Args.int_arg args 0 in
  let offset = Args.int_arg args 1 in
  let whence = Args.int_arg args 2 in
  with_fd proc fd (fun entry ->
      let o = entry.fde_ofile in
      match o.kind with
      | K_file node ->
        let size = Vfs.file_size node in
        let base =
          if whence = Flags.seek_set then 0
          else if whence = Flags.seek_cur then o.offset
          else size
        in
        let pos = base + offset in
        if pos < 0 then Args.err Errno.EINVAL
        else begin
          o.offset <- pos;
          Args.ok pos
        end
      | _ -> Args.err Errno.ESPIPE)

let do_socket k proc _args =
  let ep =
    {
      ep_id = k.next_ofile;
      ep_rx = Bytequeue.create ();
      ep_peer = None;
      ep_port = 0;
      ep_peer_closed = false;
      ep_closed = false;
      ep_readable = Cond.create "sock-readable";
      ep_writable = Cond.create "sock-writable";
      ep_watchers = [];
    }
  in
  let o = new_ofile k (K_sock ep) in
  let fd = add_fd proc o in
  grant [ (fd, o) ] (Args.ok fd)

let do_bind k proc args =
  let fd = Args.int_arg args 0 in
  let port = Args.int_arg args 1 in
  with_fd proc fd (fun entry ->
      match entry.fde_ofile.kind with
      | K_sock ep ->
        if Hashtbl.mem k.listeners port then Args.err Errno.EADDRINUSE
        else begin
          ep.ep_port <- port;
          Args.ok 0
        end
      | _ -> Args.err Errno.ENOTSOCK)

let do_listen k proc args =
  let fd = Args.int_arg args 0 in
  with_fd proc fd (fun entry ->
      let o = entry.fde_ofile in
      match o.kind with
      | K_sock ep ->
        if ep.ep_port = 0 then Args.err Errno.EINVAL
        else if Hashtbl.mem k.listeners ep.ep_port then
          Args.err Errno.EADDRINUSE
        else begin
          (* The ofile's epoll watches follow it from the socket to the
             listener, whose connections must notify them. *)
          let moved, kept =
            List.partition (fun w -> w.w_ofile == o) ep.ep_watchers
          in
          ep.ep_watchers <- kept;
          let l =
            {
              l_id = k.next_ofile;
              l_port = ep.ep_port;
              l_backlog = Queue.create ();
              l_closed = false;
              l_cond = Cond.create "listener";
              l_watchers = moved;
            }
          in
          Hashtbl.replace k.listeners ep.ep_port l;
          o.kind <- K_listen l;
          notify_watches moved;
          Args.ok 0
        end
      | K_listen _ -> Args.ok 0
      | _ -> Args.err Errno.ENOTSOCK)

let do_accept k proc args =
  let fd = Args.int_arg args 0 in
  with_fd proc fd (fun entry ->
      let o = entry.fde_ofile in
      match o.kind with
      | K_listen l -> (
        let ready () = (not (Queue.is_empty l.l_backlog)) || l.l_closed in
        match block_until ~nonblock:(nonblocking o) l.l_cond ready with
        | Error e -> Args.err e
        | Ok () ->
          if l.l_closed && Queue.is_empty l.l_backlog then
            Args.err Errno.EINVAL
          else begin
            let ep = Queue.pop l.l_backlog in
            let so = new_ofile k (K_sock ep) in
            let newfd = add_fd proc so in
            grant [ (newfd, so) ] (Args.ok newfd)
          end)
      | K_sock _ -> Args.err Errno.EINVAL
      | _ -> Args.err Errno.ENOTSOCK)

let do_connect k proc args =
  let fd = Args.int_arg args 0 in
  let port = Args.int_arg args 1 in
  with_fd proc fd (fun entry ->
      match entry.fde_ofile.kind with
      | K_sock ep -> (
        match Hashtbl.find_opt k.listeners port with
        | None -> Args.err Errno.ECONNREFUSED
        | Some l ->
          if l.l_closed then Args.err Errno.ECONNREFUSED
          else begin
            let server_ep =
              {
                ep_id = k.next_ofile;
                ep_rx = Bytequeue.create ();
                ep_peer = Some ep;
                ep_port = port;
                ep_peer_closed = false;
                ep_closed = false;
                ep_readable = Cond.create "sock-readable";
                ep_writable = Cond.create "sock-writable";
                ep_watchers = [];
              }
            in
            k.next_ofile <- k.next_ofile + 1;
            ep.ep_peer <- Some server_ep;
            (* Connected: the socket may now be writable. *)
            notify_watches ep.ep_watchers;
            if ep.ep_port = 0 then begin
              ep.ep_port <- k.next_ephemeral_port;
              k.next_ephemeral_port <- k.next_ephemeral_port + 1
            end;
            (* One round trip for the handshake. *)
            if k.link_latency > 0 then E.sleep (2 * k.link_latency);
            Queue.push server_ep l.l_backlog;
            Cond.broadcast l.l_cond;
            notify_watches l.l_watchers;
            Args.ok 0
          end)
      | _ -> Args.err Errno.ENOTSOCK)

let do_shutdown _k proc args =
  let fd = Args.int_arg args 0 in
  let how = Args.int_arg args 1 in
  with_fd proc fd (fun entry ->
      match entry.fde_ofile.kind with
      | K_sock ep ->
        if how = Flags.shut_wr || how = Flags.shut_rdwr then begin
          ep.ep_closed <- true;
          match ep.ep_peer with
          | Some peer ->
            peer.ep_peer_closed <- true;
            wake_sock_readers peer;
            Args.ok 0
          | None -> Args.ok 0
        end
        else Args.ok 0
      | _ -> Args.err Errno.ENOTSOCK)

let do_pipe k proc _args =
  let p =
    {
      p_q = Bytequeue.create ~capacity:65536 ();
      p_readers = 1;
      p_writers = 1;
      p_readable = Cond.create "pipe-readable";
      p_writable = Cond.create "pipe-writable";
      p_watchers = [];
    }
  in
  let ro = new_ofile k (K_pipe_r p) in
  let wo = new_ofile k (K_pipe_w p) in
  let rfd = add_fd proc ro in
  let wfd = add_fd proc wo in
  let out = Bytes.create 8 in
  Bytes.set_int32_le out 0 (Int32.of_int rfd);
  Bytes.set_int32_le out 4 (Int32.of_int wfd);
  grant [ (rfd, ro); (wfd, wo) ] (Args.ok_out 0 out)

let do_dup _k proc args =
  let fd = Args.int_arg args 0 in
  with_fd proc fd (fun entry ->
      let o = entry.fde_ofile in
      o.refcount <- o.refcount + 1;
      let newfd = add_fd proc o in
      grant [ (newfd, o) ] (Args.ok newfd))

let do_dup2 k proc args =
  let fd = Args.int_arg args 0 in
  let newfd = Args.int_arg args 1 in
  with_fd proc fd (fun entry ->
      let o = entry.fde_ofile in
      if newfd = fd then Args.ok newfd
      else begin
        (match fd_entry proc newfd with
        | Some old ->
          Hashtbl.remove proc.fds newfd;
          release_ofile k old.fde_ofile
        | None -> ());
        o.refcount <- o.refcount + 1;
        Hashtbl.replace proc.fds newfd { fde_ofile = o; fde_cloexec = false };
        grant [ (newfd, o) ] (Args.ok newfd)
      end)

let do_epoll_create k proc _args =
  let e =
    {
      e_id = k.next_ofile;
      e_watches = Hashtbl.create 16;
      e_cond = Cond.create "epoll";
      e_ready = [||];
      e_nready = 0;
      e_watchers = [];
    }
  in
  let o = new_ofile k (K_epoll e) in
  let fd = add_fd proc o in
  grant [ (fd, o) ] (Args.ok fd)

let add_watcher w =
  match w.w_ofile.kind with
  | K_sock ep -> ep.ep_watchers <- w :: ep.ep_watchers
  | K_pipe_r p | K_pipe_w p -> p.p_watchers <- w :: p.p_watchers
  | K_listen l -> l.l_watchers <- w :: l.l_watchers
  | K_epoll e -> e.e_watchers <- w :: e.e_watchers
  | K_file _ -> ()

let remove_watcher w =
  let not_this x = x != w in
  match w.w_ofile.kind with
  | K_sock ep -> ep.ep_watchers <- List.filter not_this ep.ep_watchers
  | K_pipe_r p | K_pipe_w p -> p.p_watchers <- List.filter not_this p.p_watchers
  | K_listen l -> l.l_watchers <- List.filter not_this l.l_watchers
  | K_epoll e -> e.e_watchers <- List.filter not_this e.e_watchers
  | K_file _ -> ()

let do_epoll_ctl _k proc args =
  let epfd = Args.int_arg args 0 in
  let op = Args.int_arg args 1 in
  let fd = Args.int_arg args 2 in
  let events = Args.int_arg args 3 in
  with_fd proc epfd (fun epentry ->
      match epentry.fde_ofile.kind with
      | K_epoll e ->
        with_fd proc fd (fun entry ->
            let o = entry.fde_ofile in
            if op = Flags.epoll_ctl_add then begin
              if Hashtbl.mem e.e_watches fd then Args.err Errno.EEXIST
              else if (match o.kind with K_epoll e' -> e' == e | _ -> false)
              then Args.err Errno.EINVAL (* an epoll cannot watch itself *)
              else begin
                let w =
                  {
                    w_fd = fd;
                    w_ofile = o;
                    w_events = events;
                    w_ep = e;
                    w_queued = false;
                  }
                in
                Hashtbl.replace e.e_watches fd w;
                add_watcher w;
                notify_watch w;
                Args.ok 0
              end
            end
            else if op = Flags.epoll_ctl_del then begin
              (match Hashtbl.find_opt e.e_watches fd with
              | Some w ->
                remove_watcher w;
                unqueue_watch w
              | None -> ());
              Hashtbl.remove e.e_watches fd;
              Args.ok 0
            end
            else if op = Flags.epoll_ctl_mod then begin
              match Hashtbl.find_opt e.e_watches fd with
              | Some w ->
                w.w_events <- events;
                notify_watch w;
                Args.ok 0
              | None -> Args.err Errno.ENOENT
            end
            else Args.err Errno.EINVAL)
      | _ -> Args.err Errno.EINVAL)

(* Encode epoll_wait results as (fd:int32, events:int32) pairs. *)
let encode_epoll_events ready =
  let b = Bytes.create (8 * List.length ready) in
  List.iteri
    (fun i (fd, ev) ->
      Bytes.set_int32_le b (8 * i) (Int32.of_int fd);
      Bytes.set_int32_le b ((8 * i) + 4) (Int32.of_int ev))
    ready;
  b

(* Re-check the queued watches only and encode what at most
   [maxevents] of them find ready as (fd:int32, events:int32) pairs.
   Watches that stopped being ready leave the list (a later notification
   queues them again) unless they never notify. The list is sorted by
   fd, so past [maxevents] the lowest fds win. The pairs are encoded
   here, before the caller charges for the copy: that charge may park
   the task, and another task sharing the epoll may change the list
   meanwhile. *)
let collect_ready e maxevents =
  let a = e.e_ready and n = e.e_nready in
  let kept = ref 0 and nready = ref 0 in
  for i = 0 to n - 1 do
    let w = a.(i) in
    let ready = watch_events w <> 0 in
    if ready then incr nready;
    if ready || never_notifies w.w_ofile then begin
      a.(!kept) <- w;
      incr kept
    end
    else w.w_queued <- false
  done;
  e.e_nready <- !kept;
  let count = min maxevents !nready in
  if count <= 0 then Bytes.empty
  else begin
    let b = Bytes.create (8 * count) in
    let j = ref 0 and i = ref 0 in
    while !j < count do
      let w = a.(!i) in
      let ev = watch_events w in
      if ev <> 0 then begin
        Bytes.set_int32_le b (8 * !j) (Int32.of_int w.w_fd);
        Bytes.set_int32_le b ((8 * !j) + 4) (Int32.of_int ev);
        incr j
      end;
      incr i
    done;
    b
  end

let do_epoll_wait k proc args =
  let epfd = Args.int_arg args 0 in
  let maxevents = Args.int_arg args 1 in
  let timeout_ms = Args.int_arg args 2 in
  with_fd proc epfd (fun epentry ->
      match epentry.fde_ofile.kind with
      | K_epoll e ->
        let finish b =
          charge_out k (Bytes.length b);
          Args.ok_out (Bytes.length b / 8) b
        in
        let ready = collect_ready e maxevents in
        if Bytes.length ready > 0 || timeout_ms = 0 then finish ready
        else begin
          let deadline_cycles =
            if timeout_ms < 0 then None
            else
              Some
                (Int64.to_int
                   (Cost.us_to_cycles k.cost (float_of_int timeout_ms *. 1000.)))
          in
          (* The idle server's home: units park here between requests, so
             this wait dominates a lightly-loaded shard's task-cycles. *)
          let t0 = Prof.mark () in
          let finish b =
            Prof.charge_wait Phase.kernel_wait t0;
            finish b
          in
          let rec wait_loop remaining =
            let signalled =
              match remaining with
              | None ->
                Cond.wait e.e_cond;
                true
              | Some r ->
                if r <= 0 then false else Cond.wait_timeout e.e_cond r
            in
            if not signalled then finish Bytes.empty
            else begin
              let ready = collect_ready e maxevents in
              if Bytes.length ready > 0 then finish ready
              else
                wait_loop remaining
                (* Remaining budget bookkeeping is approximated: a spurious
                   wake-up restarts the full timeout, which only ever makes
                   the simulated server {e more} patient. *)
            end
          in
          wait_loop deadline_cycles
        end
      | _ -> Args.err Errno.EINVAL)

(* A connected pair of UNIX-domain-style sockets: two endpoints peered
   with each other, as the coordinator uses for the zygote protocol and
   the per-variant data channels (§3.1, §3.3.2). *)
let do_socketpair k proc _args =
  let mk () =
    {
      ep_id = k.next_ofile;
      ep_rx = Bytequeue.create ();
      ep_peer = None;
      ep_port = 0;
      ep_peer_closed = false;
      ep_closed = false;
      ep_readable = Cond.create "pair-readable";
      ep_writable = Cond.create "pair-writable";
      ep_watchers = [];
    }
  in
  let a = mk () in
  let b = mk () in
  a.ep_peer <- Some b;
  b.ep_peer <- Some a;
  let oa = new_ofile k (K_sock a) in
  let ob = new_ofile k (K_sock b) in
  let fda = add_fd proc oa in
  let fdb = add_fd proc ob in
  let out = Bytes.create 8 in
  Bytes.set_int32_le out 0 (Int32.of_int fda);
  Bytes.set_int32_le out 4 (Int32.of_int fdb);
  grant [ (fda, oa); (fdb, ob) ] (Args.ok_out 0 out)

(* poll(2): the fd set travels as (fd, events) int32 pairs; revents come
   back the same way for ready descriptors. *)
let do_poll k proc args =
  let spec = Args.buf_in_arg args 0 in
  let timeout_ms = Args.int_arg args 1 in
  let nfds = Bytes.length spec / 8 in
  let entries =
    List.init nfds (fun i ->
        ( Int32.to_int (Bytes.get_int32_le spec (8 * i)),
          Int32.to_int (Bytes.get_int32_le spec ((8 * i) + 4)) ))
  in
  let lookup fd = Option.map (fun e -> e.fde_ofile) (fd_entry proc fd) in
  let collect () =
    List.filter_map
      (fun (fd, events) ->
        match lookup fd with
        | None -> Some (fd, 0x20 (* POLLNVAL *))
        | Some o ->
          let r = ref 0 in
          if events land Flags.epollin <> 0 && ready_read o then
            r := !r lor Flags.epollin;
          if events land Flags.epollout <> 0 && ready_write o then
            r := !r lor Flags.epollout;
          if !r <> 0 then Some (fd, !r) else None)
      entries
  in
  let finish ready =
    charge_out k (8 * List.length ready);
    Args.ok_out (List.length ready) (encode_epoll_events ready)
  in
  let ready = collect () in
  if ready <> [] || timeout_ms = 0 then finish ready
  else begin
    (* Park on every pollable object's condition variable in turn is not
       expressible with single-cond waits; poll re-checks on a coarse
       tick, bounded by the timeout. *)
    let tick = 50_000 (* ~14 us *) in
    let budget =
      if timeout_ms < 0 then max_int
      else
        Int64.to_int
          (Cost.us_to_cycles k.cost (float_of_int timeout_ms *. 1000.))
    in
    let rec wait_loop spent =
      let ready = collect () in
      if ready <> [] then finish ready
      else if spent >= budget then finish []
      else begin
        E.sleep (min tick (budget - spent));
        wait_loop (spent + tick)
      end
    in
    wait_loop 0
  end

(* select(2): read and write fd sets travel as int32 lists; the result
   re-encodes the ready descriptors the same way poll does. *)
let do_select k proc args =
  let readfds = Args.buf_in_arg args 0 in
  let writefds = Args.buf_in_arg args 1 in
  let timeout_ms = Args.int_arg args 2 in
  let decode_set b =
    List.init (Bytes.length b / 4) (fun i ->
        Int32.to_int (Bytes.get_int32_le b (4 * i)))
  in
  let spec =
    List.map (fun fd -> (fd, Flags.epollin)) (decode_set readfds)
    @ List.map (fun fd -> (fd, Flags.epollout)) (decode_set writefds)
  in
  let encoded = Bytes.create (8 * List.length spec) in
  List.iteri
    (fun i (fd, events) ->
      Bytes.set_int32_le encoded (8 * i) (Int32.of_int fd);
      Bytes.set_int32_le encoded ((8 * i) + 4) (Int32.of_int events))
    spec;
  do_poll k proc
    [| Args.Buf_in encoded; Args.Int timeout_ms;
       Args.Buf_out (8 * List.length spec) |]

let do_futex k _proc args =
  let uaddr = Args.int_arg args 0 in
  let op = Args.int_arg args 1 in
  let value = Args.int_arg args 2 in
  let slot () =
    match Hashtbl.find_opt k.futexes uaddr with
    | Some s -> s
    | None ->
      let s =
        {
          f_cond = Cond.create (Printf.sprintf "futex-%d" uaddr);
          f_waiters = 0;
          f_locked = false;
          f_acq = 0;
        }
      in
      Hashtbl.replace k.futexes uaddr s;
      s
  in
  if op = Flags.futex_wait then begin
    let s = slot () in
    let t0 = Prof.mark () in
    s.f_waiters <- s.f_waiters + 1;
    Cond.wait s.f_cond;
    s.f_waiters <- s.f_waiters - 1;
    Prof.charge_wait Phase.kernel_wait t0;
    Args.ok 0
  end
  else if op = Flags.futex_wake then begin
    let s = slot () in
    let n = min value s.f_waiters in
    for _ = 1 to n do
      Cond.signal s.f_cond
    done;
    Args.ok n
  end
  else if op = Flags.futex_lock then begin
    (* PI-style mutex acquire. The return value is the word's acquisition
       index — a 1-based global sequence per futex — so a recorded event
       stream carries the leader's lock-acquisition order explicitly, and
       followers replaying the stream observe (and can assert) the same
       order. Contended acquires queue FIFO on the condition variable. *)
    let s = slot () in
    if s.f_locked then begin
      let t0 = Prof.mark () in
      while s.f_locked do
        s.f_waiters <- s.f_waiters + 1;
        Cond.wait s.f_cond;
        s.f_waiters <- s.f_waiters - 1
      done;
      Prof.charge_wait Phase.kernel_wait t0
    end;
    s.f_locked <- true;
    s.f_acq <- s.f_acq + 1;
    Args.ok s.f_acq
  end
  else if op = Flags.futex_unlock then begin
    let s = slot () in
    if not s.f_locked then Args.err Errno.EPERM
    else begin
      s.f_locked <- false;
      if s.f_waiters > 0 then Cond.signal s.f_cond;
      Args.ok 0
    end
  end
  else Args.err Errno.ENOSYS

let do_wait4 _k proc _args =
  let find_exited () =
    List.find_opt (fun c -> c.exited) proc.children
  in
  if proc.children = [] then Args.err Errno.EINVAL
  else begin
    let rec loop () =
      match find_exited () with
      | Some child ->
        proc.children <- List.filter (fun c -> c != child) proc.children;
        let status = Bytes.create 4 in
        Bytes.set_int32_le status 0 (Int32.of_int child.exit_code);
        Args.ok_out child.pid status
      | None ->
        let t0 = Prof.mark () in
        Cond.wait proc.exit_cond;
        Prof.charge_wait Phase.kernel_wait t0;
        loop ()
    in
    loop ()
  end

let do_getdents k proc args =
  let fd = Args.int_arg args 0 in
  ignore k;
  with_fd proc fd (fun entry ->
      match entry.fde_ofile.kind with
      | K_file (Directory d) ->
        if entry.fde_ofile.offset > 0 then Args.ok_out 0 Bytes.empty
        else begin
          let names = Hashtbl.fold (fun name _ acc -> name :: acc) d [] in
          let names = List.sort compare names in
          let payload = String.concat "\000" names in
          entry.fde_ofile.offset <- 1;
          Args.ok_out (List.length names) (Bytes.of_string payload)
        end
      | K_file _ -> Args.err Errno.ENOTDIR
      | _ -> Args.err Errno.ENOTDIR)

let do_fcntl k proc args =
  let fd = Args.int_arg args 0 in
  let cmd = Args.int_arg args 1 in
  let arg = if Array.length args > 2 then Args.int_arg args 2 else 0 in
  with_fd proc fd (fun entry ->
      let o = entry.fde_ofile in
      if cmd = Flags.f_getfl then Args.ok o.flags
      else if cmd = Flags.f_setfl then begin
        o.flags <- arg;
        Args.ok 0
      end
      else if cmd = Flags.f_getfd then
        Args.ok (if entry.fde_cloexec then Flags.fd_cloexec else 0)
      else if cmd = Flags.f_setfd then begin
        entry.fde_cloexec <- arg land Flags.fd_cloexec <> 0;
        Args.ok 0
      end
      else if cmd = Flags.f_dupfd then begin
        o.refcount <- o.refcount + 1;
        let newfd = add_fd proc o in
        ignore k;
        grant [ (newfd, o) ] (Args.ok newfd)
      end
      else Args.err Errno.EINVAL)

let do_kill k _proc args =
  let pid = Args.int_arg args 0 in
  let signo = Args.int_arg args 1 in
  match Hashtbl.find_opt k.procs pid with
  | None -> Args.err Errno.ENOENT
  | Some target -> (
    match Hashtbl.find_opt target.sighandlers signo with
    | Some Sig_ignore -> Args.ok 0
    | Some (Sig_handler _) ->
      (* Caught signals become pending and are delivered at the target's
         next syscall boundary — the only point a syscall-level monitor
         can virtualise them (§2.2). *)
      target.pending_signals <- target.pending_signals @ [ signo ];
      Args.ok 0
    | Some Sig_default | None ->
      if signo = Flags.sigchld then Args.ok 0
      else begin
        kill_proc k target signo;
        Args.ok 0
      end)

let encode_time_ns ns =
  let b = Bytes.create 16 in
  put_le64 b 0 (Int64.div ns 1_000_000_000L);
  put_le64 b 8 (Int64.rem ns 1_000_000_000L);
  b

let set_signal_handler proc signo f =
  Hashtbl.replace proc.sighandlers signo (Sig_handler f)

(* Queue a caught signal directly on a process — the fault injector's
   signal source. Unlike [do_kill] there is no default-disposition kill:
   a signal without a handler is simply dropped, so an injection can
   never terminate a process out of band. *)
let post_signal proc signo =
  match Hashtbl.find_opt proc.sighandlers signo with
  | Some (Sig_handler _) ->
    proc.pending_signals <- proc.pending_signals @ [ signo ]
  | _ -> ()

let take_pending_signal proc =
  match proc.pending_signals with
  | [] -> None
  | signo :: rest ->
    proc.pending_signals <- rest;
    Some signo

let handler_for proc signo =
  match Hashtbl.find_opt proc.sighandlers signo with
  | Some (Sig_handler f) -> Some f
  | _ -> None

(* Deliver any pending caught signals before the call proper — native
   execution's equivalent of the monitor's boundary delivery. *)
let rec deliver_pending proc =
  match take_pending_signal proc with
  | None -> ()
  | Some signo ->
    (match handler_for proc signo with Some f -> f signo | None -> ());
    deliver_pending proc

let exec k proc sysno (args : Args.t) : Args.result =
  if proc.exited then Args.err Errno.EIO
  else begin
    deliver_pending proc;
    (* Charge the flat native cost up front; data-dependent copy costs are
       charged where the byte counts are known. *)
    let payload = Args.payload_size args in
    E.consume (Cost.native k.cost sysno payload);
    match (sysno : Sysno.t) with
    | Read | Pread64 | Readv | Recvfrom | Recvmsg -> do_read k proc args
    | Write | Pwrite64 | Writev | Sendto | Sendmsg -> do_write k proc args
    | Open | Openat -> do_open k proc args
    | Close -> do_close k proc args
    | Stat | Lstat | Access -> do_stat k proc args
    | Fstat -> do_fstat k proc args
    | Lseek -> do_lseek k proc args
    | Socket -> do_socket k proc args
    | Bind -> do_bind k proc args
    | Listen -> do_listen k proc args
    | Accept | Accept4 -> do_accept k proc args
    | Connect -> do_connect k proc args
    | Shutdown -> do_shutdown k proc args
    | Pipe -> do_pipe k proc args
    | Socketpair -> do_socketpair k proc args
    | Poll -> do_poll k proc args
    | Select -> do_select k proc args
    | Dup -> do_dup k proc args
    | Dup2 -> do_dup2 k proc args
    | Epoll_create -> do_epoll_create k proc args
    | Epoll_ctl -> do_epoll_ctl k proc args
    | Epoll_wait -> do_epoll_wait k proc args
    | Futex -> do_futex k proc args
    | Wait4 -> do_wait4 k proc args
    | Getdents -> do_getdents k proc args
    | Fcntl -> do_fcntl k proc args
    | Kill -> do_kill k proc args
    | Unlink -> (
      match Vfs.unlink k ~cwd:proc.cwd (Args.str_arg args 0) with
      | Ok () -> Args.ok 0
      | Error e -> Args.err e)
    | Mkdir -> (
      match Vfs.mkdir k ~cwd:proc.cwd (Args.str_arg args 0) with
      | Ok () -> Args.ok 0
      | Error e -> Args.err e)
    | Rmdir -> (
      match Vfs.rmdir k ~cwd:proc.cwd (Args.str_arg args 0) with
      | Ok () -> Args.ok 0
      | Error e -> Args.err e)
    | Rename -> (
      match
        Vfs.rename k ~cwd:proc.cwd (Args.str_arg args 0) (Args.str_arg args 1)
      with
      | Ok () -> Args.ok 0
      | Error e -> Args.err e)
    | Chdir -> (
      let path = Args.str_arg args 0 in
      match Vfs.lookup k ~cwd:proc.cwd path with
      | Ok (Directory _) ->
        proc.cwd <- "/" ^ String.concat "/" (Vfs.normalize ~cwd:proc.cwd path);
        Args.ok 0
      | Ok _ -> Args.err Errno.ENOTDIR
      | Error e -> Args.err e)
    | Getcwd -> Args.ok_out (String.length proc.cwd) (Bytes.of_string proc.cwd)
    | Readlink -> Args.err Errno.EINVAL
    | Chmod | Ftruncate | Flock | Fsync | Fdatasync | Madvise | Mprotect
    | Munmap | Setsockopt | Ioctl | Sched_yield | Setuid | Setgid | Setsid
    | Rt_sigprocmask | Rt_sigreturn | Sendfile ->
      Args.ok 0
    | Rt_sigaction -> Args.ok 0
    | Getsockopt -> Args.ok_out 0 (Bytes.make 4 '\000')
    | Getsockname | Getpeername ->
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 0l;
      Args.ok_out 0 b
    | Umask ->
      let old = proc.umask in
      proc.umask <- Args.int_arg args 0;
      Args.ok old
    | Getpid -> Args.ok proc.pid
    | Getppid ->
      Args.ok (match proc.parent with Some p -> p.pid | None -> 0)
    | Getuid -> Args.ok proc.uid
    | Geteuid -> Args.ok proc.uid
    | Getgid -> Args.ok proc.gid
    | Getegid -> Args.ok proc.gid
    | Uname ->
      Args.ok_out 0 (Bytes.of_string "Linux varan-sim 3.13.0 x86_64")
    | Getrlimit | Getrusage | Times -> Args.ok_out 0 (Bytes.make 16 '\000')
    | Getrandom ->
      let n = Args.buf_out_arg args 0 in
      charge_out k n;
      Args.ok_out n (random_bytes k n)
    | Time -> Args.ok (Int64.to_int (Int64.div (task_now_ns k) 1_000_000_000L))
    | Gettimeofday | Clock_gettime ->
      Args.ok_out 0 (encode_time_ns (task_now_ns k))
    | Getcpu -> Args.ok_out 0 (Bytes.make 8 '\000')
    | Nanosleep ->
      let ns = Args.int_arg args 0 in
      let cycles =
        Int64.to_int (Cost.us_to_cycles k.cost (float_of_int ns /. 1000.0))
      in
      E.sleep cycles;
      Args.ok 0
    | Brk ->
      let addr = Args.int_arg args 0 in
      if addr > 0 then proc.brk_addr <- addr;
      Args.ok proc.brk_addr
    | Mmap ->
      let len = Args.int_arg args 1 in
      let addr = proc.mmap_next in
      let aligned = (len + 4095) land lnot 4095 in
      proc.mmap_next <- proc.mmap_next + max 4096 aligned;
      Args.ok addr
    | Exit | Exit_group ->
      let code = Args.int_arg args 0 in
      proc.exited <- true;
      proc.exit_code <- code;
      Hashtbl.iter (fun _ e -> release_ofile k e.fde_ofile) proc.fds;
      Hashtbl.reset proc.fds;
      (match proc.parent with
      | Some parent -> Cond.broadcast parent.exit_cond
      | None -> ());
      let my_task = E.self () in
      List.iter
        (fun tid -> if tid <> my_task then E.kill k.eng tid)
        proc.tasks;
      raise E.Killed
    | Clone | Fork | Execve | Pause -> Args.err Errno.ENOSYS
  end
