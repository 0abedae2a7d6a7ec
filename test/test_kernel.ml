(* Tests for the simulated kernel: VFS, file I/O, pipes, sockets, epoll,
   futexes, processes and time. Each test builds a fresh engine+kernel and
   runs one or more simulated processes to completion. *)

module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Vfs = Varan_kernel.Vfs
module Flags = Varan_kernel.Flags
module Errno = Varan_syscall.Errno

let errno = Alcotest.testable Errno.pp Errno.equal

let ok_int = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Errno.name e)

let ok_unit = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected errno %s" (Errno.name e)

let ok_bytes = function
  | Ok b -> b
  | Error e -> Alcotest.failf "unexpected errno %s" (Errno.name e)

(* Run to completion, or with [~quiescent] until nothing is runnable. The
   engine only records an exception raised in a task, so a check that
   failed inside a task is re-raised here to fail the test. *)
let run_checked ?(quiescent = false) eng =
  if quiescent then E.run_until_quiescent eng else E.run eng;
  match E.failures eng with [] -> () | (_, e) :: _ -> raise e

(* Run [body] as a single simulated process and return its result. *)
let in_proc ?(link_latency = 0) body =
  let eng = E.create () in
  let k = K.create ~link_latency eng in
  let result = ref None in
  let proc = K.new_proc k "test" in
  let tid =
    E.spawn eng ~name:"test-proc" (fun () ->
        let api = Api.direct k proc in
        result := Some (body k api))
  in
  K.register_task k proc tid;
  run_checked eng;
  match !result with Some r -> r | None -> Alcotest.fail "process died"

let test_dev_null () =
  in_proc (fun _k api ->
      let fd = ok_int (Api.openf api "/dev/null" Flags.o_rdwr) in
      let n = ok_int (Api.write_str api fd "discarded") in
      Alcotest.(check int) "write accepted" 9 n;
      let b = ok_bytes (Api.read api fd 128) in
      Alcotest.(check int) "read gives EOF" 0 (Bytes.length b);
      ok_unit (Result.map (fun _ -> ()) (Api.close api fd)))

let test_file_roundtrip () =
  in_proc (fun _k api ->
      let fd =
        ok_int (Api.openf api "/tmp/data.txt" (Flags.o_rdwr lor Flags.o_creat))
      in
      ignore (ok_int (Api.write_str api fd "hello world"));
      ignore (ok_int (Api.lseek api fd 0 Flags.seek_set));
      let b = ok_bytes (Api.read api fd 64) in
      Alcotest.(check string) "contents" "hello world" (Bytes.to_string b);
      let size = ok_int (Api.fstat_size api fd) in
      Alcotest.(check int) "fstat size" 11 size;
      ignore (ok_int (Api.close api fd));
      let size = ok_int (Api.stat_size api "/tmp/data.txt") in
      Alcotest.(check int) "stat size" 11 size)

let test_open_enoent () =
  in_proc (fun _k api ->
      match Api.openf api "/no/such/file" Flags.o_rdonly with
      | Ok _ -> Alcotest.fail "expected ENOENT"
      | Error e -> Alcotest.check errno "errno" Errno.ENOENT e)

let test_close_ebadf () =
  in_proc (fun _k api ->
      match Api.close api 42 with
      | Ok _ -> Alcotest.fail "expected EBADF"
      | Error e -> Alcotest.check errno "errno" Errno.EBADF e)

let test_o_trunc_and_append () =
  in_proc (fun _k api ->
      let fd =
        ok_int (Api.openf api "/tmp/t" (Flags.o_wronly lor Flags.o_creat))
      in
      ignore (ok_int (Api.write_str api fd "0123456789"));
      ignore (ok_int (Api.close api fd));
      let fd =
        ok_int
          (Api.openf api "/tmp/t"
             (Flags.o_wronly lor Flags.o_creat lor Flags.o_trunc))
      in
      ignore (ok_int (Api.write_str api fd "ab"));
      ignore (ok_int (Api.close api fd));
      Alcotest.(check int) "truncated" 2 (ok_int (Api.stat_size api "/tmp/t"));
      let fd =
        ok_int (Api.openf api "/tmp/t" (Flags.o_wronly lor Flags.o_append))
      in
      ignore (ok_int (Api.write_str api fd "cd"));
      ignore (ok_int (Api.close api fd));
      Alcotest.(check int) "appended" 4 (ok_int (Api.stat_size api "/tmp/t")))

let test_urandom () =
  in_proc (fun _k api ->
      let fd = ok_int (Api.openf api "/dev/urandom" Flags.o_rdonly) in
      let a = ok_bytes (Api.read api fd 32) in
      let b = ok_bytes (Api.read api fd 32) in
      Alcotest.(check int) "length" 32 (Bytes.length a);
      Alcotest.(check bool) "random streams differ" false (Bytes.equal a b))

let test_dup_shares_offset () =
  in_proc (fun _k api ->
      let fd =
        ok_int (Api.openf api "/tmp/d" (Flags.o_rdwr lor Flags.o_creat))
      in
      ignore (ok_int (Api.write_str api fd "xyz"));
      let fd2 = ok_int (Api.dup api fd) in
      ignore (ok_int (Api.write_str api fd2 "abc"));
      Alcotest.(check int)
        "offset shared via dup" 6
        (ok_int (Api.stat_size api "/tmp/d")))

let test_fd_numbers_lowest_free () =
  in_proc (fun _k api ->
      let fd0 = ok_int (Api.openf api "/dev/null" 0) in
      let fd1 = ok_int (Api.openf api "/dev/null" 0) in
      let fd2 = ok_int (Api.openf api "/dev/null" 0) in
      Alcotest.(check (list int)) "sequential" [ 0; 1; 2 ] [ fd0; fd1; fd2 ];
      ignore (ok_int (Api.close api fd1));
      let fd = ok_int (Api.openf api "/dev/null" 0) in
      Alcotest.(check int) "lowest free reused" 1 fd)

let test_vfs_ops () =
  in_proc (fun _k api ->
      ok_unit (Api.mkdir api "/tmp/sub");
      let fd =
        ok_int (Api.openf api "/tmp/sub/f" (Flags.o_wronly lor Flags.o_creat))
      in
      ignore (ok_int (Api.close api fd));
      ok_unit (Api.access api "/tmp/sub/f");
      ok_unit (Api.rename api "/tmp/sub/f" "/tmp/sub/g");
      (match Api.access api "/tmp/sub/f" with
      | Error e -> Alcotest.check errno "old gone" Errno.ENOENT e
      | Ok () -> Alcotest.fail "expected ENOENT after rename");
      ok_unit (Api.unlink api "/tmp/sub/g"))

let test_pipe_blocking () =
  let eng = E.create () in
  let k = K.create eng in
  let proc = K.new_proc k "p" in
  let api = Api.direct k proc in
  let got = ref "" in
  ignore
    (E.spawn eng ~name:"setup" (fun () ->
         let r, w = ok_int (Api.pipe api) in
         ignore
           (E.spawn_here ~name:"reader" (fun () ->
                let b = ok_bytes (Api.read api r 16) in
                got := Bytes.to_string b));
         ignore
           (E.spawn_here ~name:"writer" (fun () ->
                E.consume 5_000;
                ignore (ok_int (Api.write_str api w "ping"))))));
  run_checked eng;
  Alcotest.(check string) "reader blocked then received" "ping" !got

let test_socket_roundtrip () =
  let eng = E.create () in
  let k = K.create eng in
  let server_got = ref "" and client_got = ref "" in
  let sproc = K.new_proc k "server" in
  let cproc = K.new_proc k "client" in
  ignore
    (E.spawn eng ~name:"server" (fun () ->
         let api = Api.direct k sproc in
         let lfd = ok_int (Api.socket api) in
         ok_unit (Api.bind api lfd 8080);
         ok_unit (Api.listen api lfd);
         let cfd = ok_int (Api.accept api lfd) in
         let req = ok_bytes (Api.recv api cfd 128) in
         server_got := Bytes.to_string req;
         ignore (ok_int (Api.send api cfd (Bytes.of_string "pong")));
         ignore (ok_int (Api.close api cfd));
         ignore (ok_int (Api.close api lfd))));
  ignore
    (E.spawn eng ~name:"client" (fun () ->
         let api = Api.direct k cproc in
         E.consume 1_000;
         (* let the server start listening first *)
         let fd = ok_int (Api.socket api) in
         ok_unit (Api.connect api fd 8080);
         ignore (ok_int (Api.send api fd (Bytes.of_string "ping")));
         let reply = ok_bytes (Api.recv api fd 128) in
         client_got := Bytes.to_string reply;
         ignore (ok_int (Api.close api fd))));
  run_checked eng;
  Alcotest.(check string) "server received" "ping" !server_got;
  Alcotest.(check string) "client received" "pong" !client_got

let test_socket_eof_on_close () =
  let eng = E.create () in
  let k = K.create eng in
  let eof_seen = ref false in
  let sproc = K.new_proc k "server" in
  let cproc = K.new_proc k "client" in
  ignore
    (E.spawn eng ~name:"server" (fun () ->
         let api = Api.direct k sproc in
         let lfd = ok_int (Api.socket api) in
         ok_unit (Api.bind api lfd 9090);
         ok_unit (Api.listen api lfd);
         let cfd = ok_int (Api.accept api lfd) in
         let first = ok_bytes (Api.recv api cfd 16) in
         Alcotest.(check string) "data first" "bye" (Bytes.to_string first);
         let second = ok_bytes (Api.recv api cfd 16) in
         eof_seen := Bytes.length second = 0));
  ignore
    (E.spawn eng ~name:"client" (fun () ->
         let api = Api.direct k cproc in
         E.consume 1_000;
         let fd = ok_int (Api.socket api) in
         ok_unit (Api.connect api fd 9090);
         ignore (ok_int (Api.send api fd (Bytes.of_string "bye")));
         ignore (ok_int (Api.close api fd))));
  run_checked eng;
  Alcotest.(check bool) "EOF after peer close" true !eof_seen

let test_connect_refused () =
  in_proc (fun _k api ->
      let fd = ok_int (Api.socket api) in
      match Api.connect api fd 12345 with
      | Ok () -> Alcotest.fail "expected ECONNREFUSED"
      | Error e -> Alcotest.check errno "errno" Errno.ECONNREFUSED e)

let test_nonblocking_read_eagain () =
  let eng = E.create () in
  let k = K.create eng in
  let proc = K.new_proc k "p" in
  let saw_eagain = ref false in
  ignore
    (E.spawn eng (fun () ->
         let api = Api.direct k proc in
         match Api.pipe api with
         | Error e -> Alcotest.failf "pipe: %s" (Errno.name e)
         | Ok (r, _w) -> (
           Result.get_ok (Varan_kernel.Kernel.set_nonblock proc r true);
           match Api.read api r 16 with
           | Error Errno.EAGAIN -> saw_eagain := true
           | Error e -> Alcotest.failf "unexpected errno %s" (Errno.name e)
           | Ok _ -> Alcotest.fail "expected EAGAIN")));
  run_checked eng;
  Alcotest.(check bool) "EAGAIN on empty nonblocking pipe" true !saw_eagain

let test_epoll_server_pattern () =
  let eng = E.create () in
  let k = K.create eng in
  let served = ref 0 in
  let sproc = K.new_proc k "server" in
  ignore
    (E.spawn eng ~name:"server" (fun () ->
         let api = Api.direct k sproc in
         let lfd = ok_int (Api.socket api) in
         ok_unit (Api.bind api lfd 7070);
         ok_unit (Api.listen api lfd);
         let ep = ok_int (Api.epoll_create api) in
         ok_unit (Api.epoll_ctl api ep Flags.epoll_ctl_add lfd Flags.epollin);
         (* Serve exactly three connections, one request each. *)
         let open_conns = Hashtbl.create 8 in
         let done_count = ref 0 in
         while !done_count < 3 do
           let events =
             match Api.epoll_wait api ep ~max_events:16 ~timeout_ms:(-1) with
             | Ok ev -> ev
             | Error e -> Alcotest.failf "epoll_wait: %s" (Errno.name e)
           in
           List.iter
             (fun (fd, _ev) ->
               if fd = lfd then begin
                 let c = ok_int (Api.accept api lfd) in
                 ok_unit
                   (Api.epoll_ctl api ep Flags.epoll_ctl_add c Flags.epollin);
                 Hashtbl.replace open_conns c ()
               end
               else begin
                 let data = ok_bytes (Api.recv api fd 128) in
                 if Bytes.length data = 0 then begin
                   ok_unit (Api.epoll_ctl api ep Flags.epoll_ctl_del fd 0);
                   ignore (ok_int (Api.close api fd));
                   Hashtbl.remove open_conns fd;
                   incr done_count
                 end
                 else begin
                   ignore (ok_int (Api.send api fd data));
                   incr served
                 end
               end)
             events
         done));
  for i = 1 to 3 do
    let cproc = K.new_proc k (Printf.sprintf "client%d" i) in
    ignore
      (E.spawn eng ~name:(Printf.sprintf "client%d" i) (fun () ->
           let api = Api.direct k cproc in
           E.consume (1_000 * i);
           let fd = ok_int (Api.socket api) in
           ok_unit (Api.connect api fd 7070);
           ignore (ok_int (Api.send api fd (Bytes.of_string "req")));
           let reply = ok_bytes (Api.recv api fd 128) in
           Alcotest.(check string) "echo" "req" (Bytes.to_string reply);
           ignore (ok_int (Api.close api fd))))
  done;
  run_checked eng;
  Alcotest.(check int) "three requests served" 3 !served

let test_futex_wait_wake () =
  let eng = E.create () in
  let k = K.create eng in
  let proc = K.new_proc k "p" in
  let woken = ref false in
  ignore
    (E.spawn eng ~name:"waiter" (fun () ->
         let api = Api.direct k proc in
         Api.futex_wait api 0x1000;
         woken := true));
  ignore
    (E.spawn eng ~name:"waker" (fun () ->
         let api = Api.direct k proc in
         E.consume 10_000;
         let n = Api.futex_wake api 0x1000 1 in
         Alcotest.(check int) "one waiter woken" 1 n));
  run_checked eng;
  Alcotest.(check bool) "waiter resumed" true !woken

let test_time_advances () =
  in_proc (fun _k api ->
      let t0 = Api.clock_gettime_ns api in
      Api.compute api 3_500_000 (* 1 ms at 3.5 GHz *);
      let t1 = Api.clock_gettime_ns api in
      let delta = Int64.sub t1 t0 in
      Alcotest.(check bool)
        (Printf.sprintf "~1ms passed (got %Ldns)" delta)
        true
        (delta > 900_000L && delta < 1_100_000L))

let test_getpid_and_ids () =
  in_proc (fun _k api ->
      Alcotest.(check bool) "pid positive" true (Api.getpid api > 0);
      Alcotest.(check int) "uid" 1000 (Api.getuid api);
      Alcotest.(check int) "euid" 1000 (Api.geteuid api);
      Alcotest.(check int) "gid" 1000 (Api.getgid api))

let test_link_latency_delays_delivery () =
  (* With a 35,000-cycle (10 us) link, the client's reply cannot arrive in
     less than one round trip. *)
  let eng = E.create () in
  let k = K.create ~link_latency:35_000 eng in
  let elapsed = ref 0L in
  let sproc = K.new_proc k "server" and cproc = K.new_proc k "client" in
  ignore
    (E.spawn eng ~name:"server" (fun () ->
         let api = Api.direct k sproc in
         let lfd = ok_int (Api.socket api) in
         ok_unit (Api.bind api lfd 8181);
         ok_unit (Api.listen api lfd);
         let c = ok_int (Api.accept api lfd) in
         let data = ok_bytes (Api.recv api c 64) in
         ignore (ok_int (Api.send api c data))));
  ignore
    (E.spawn eng ~name:"client" (fun () ->
         let api = Api.direct k cproc in
         E.consume 1_000;
         let fd = ok_int (Api.socket api) in
         ok_unit (Api.connect api fd 8181);
         let t0 = E.now_cycles () in
         ignore (ok_int (Api.send api fd (Bytes.of_string "x")));
         ignore (ok_bytes (Api.recv api fd 64));
         elapsed := Int64.sub (E.now_cycles ()) t0));
  run_checked eng;
  Alcotest.(check bool)
    (Printf.sprintf "RTT at least 70k cycles (got %Ld)" !elapsed)
    true
    (!elapsed >= 70_000L)

let test_fork_proc_shares_descriptions () =
  in_proc (fun k api ->
      let fd =
        ok_int (Api.openf api "/tmp/shared" (Flags.o_rdwr lor Flags.o_creat))
      in
      ignore (ok_int (Api.write_str api fd "parent"));
      let child = K.fork_proc k api.Api.proc "child" in
      Alcotest.(check int)
        "child inherited fds"
        (K.fd_count api.Api.proc)
        (K.fd_count child);
      (* Offsets are shared through the common open file description. *)
      let child_api = Api.direct k child in
      ignore (ok_int (Api.write_str child_api fd "child!"));
      Alcotest.(check int)
        "offset shared with child" 12
        (ok_int (Api.stat_size api "/tmp/shared")))

let test_exit_group_kills_process () =
  let eng = E.create () in
  let k = K.create eng in
  let proc = K.new_proc k "p" in
  let after = ref false in
  let tid =
    E.spawn eng ~name:"exiting" (fun () ->
        let api = Api.direct k proc in
        ignore (Api.exit_group api 7);
        after := true)
  in
  K.register_task k proc tid;
  run_checked eng;
  Alcotest.(check bool) "code after exit not reached" false !after;
  Alcotest.(check bool) "proc marked exited" false (K.proc_alive proc)

let test_dup2_and_getdents () =
  in_proc (fun _k api ->
      let fd = ok_int (Api.openf api "/dev/null" Flags.o_rdonly) in
      (* dup2 onto a fresh number, then onto an occupied one. *)
      let r = ok_int (Api.fcntl api fd Flags.f_dupfd 0) in
      Alcotest.(check bool) "dupfd gives a new fd" true (r <> fd);
      ok_unit (Api.mkdir api "/tmp/dir");
      let f1 = ok_int (Api.openf api "/tmp/dir/b" Flags.(o_creat lor o_wronly)) in
      let f2 = ok_int (Api.openf api "/tmp/dir/a" Flags.(o_creat lor o_wronly)) in
      ignore (ok_int (Api.close api f1));
      ignore (ok_int (Api.close api f2));
      let dirfd = ok_int (Api.openf api "/tmp/dir" Flags.o_rdonly) in
      match
        api.Api.sys Varan_syscall.Sysno.Getdents
          [| Varan_syscall.Args.Int dirfd; Varan_syscall.Args.Buf_out 512 |]
      with
      | { Varan_syscall.Args.ret; out = Some names; _ } ->
        Alcotest.(check int) "two entries" 2 ret;
        Alcotest.(check string) "sorted names" "a\000b"
          (Bytes.to_string names)
      | _ -> Alcotest.fail "getdents failed")

let test_shutdown_write_half () =
  let eng = E.create () in
  let k = K.create eng in
  let proc = K.new_proc k "p" in
  ignore
    (E.spawn eng (fun () ->
         let api = Api.direct k proc in
         let a, b = ok_int (Api.socketpair api) in
         ignore (ok_int (Api.send api a (Bytes.of_string "last words")));
         ok_unit (Api.shutdown api a Flags.shut_wr);
         (* Peer still drains buffered data, then sees EOF. *)
         let data = ok_bytes (Api.recv api b 64) in
         Alcotest.(check string) "data" "last words" (Bytes.to_string data);
         let eof = ok_bytes (Api.recv api b 64) in
         Alcotest.(check int) "EOF" 0 (Bytes.length eof);
         (* Writing into the shut-down side fails. *)
         match Api.send api a (Bytes.of_string "more") with
         | Error Errno.EPIPE -> ()
         | Error e -> Alcotest.failf "expected EPIPE, got %s" (Errno.name e)
         | Ok _ -> Alcotest.fail "expected EPIPE"));
  run_checked eng

let test_chdir_getcwd () =
  in_proc (fun _k api ->
      ok_unit (Api.mkdir api "/tmp/wd");
      (match api.Api.sys Varan_syscall.Sysno.Chdir
               [| Varan_syscall.Args.Str "/tmp/wd" |] with
      | { Varan_syscall.Args.ret = 0; _ } -> ()
      | _ -> Alcotest.fail "chdir failed");
      (* Relative path resolution now happens under /tmp/wd. *)
      let fd = ok_int (Api.openf api "rel.txt" Flags.(o_creat lor o_wronly)) in
      ignore (ok_int (Api.close api fd));
      ok_unit (Api.access api "/tmp/wd/rel.txt"))

let test_socketpair_bidirectional () =
  let eng = E.create () in
  let k = K.create eng in
  let proc = K.new_proc k "p" in
  ignore
    (E.spawn eng (fun () ->
         let api = Api.direct k proc in
         let a, b = ok_int (Api.socketpair api) in
         ignore
           (E.spawn_here ~name:"left" (fun () ->
                ignore (ok_int (Api.send api a (Bytes.of_string "ping")));
                let reply = ok_bytes (Api.recv api a 16) in
                Alcotest.(check string) "reply" "pong" (Bytes.to_string reply)));
         ignore
           (E.spawn_here ~name:"right" (fun () ->
                let msg = ok_bytes (Api.recv api b 16) in
                Alcotest.(check string) "message" "ping" (Bytes.to_string msg);
                ignore (ok_int (Api.send api b (Bytes.of_string "pong")))))));
  run_checked eng

let test_poll_ready_and_timeout () =
  let eng = E.create () in
  let k = K.create eng in
  let proc = K.new_proc k "p" in
  ignore
    (E.spawn eng (fun () ->
         let api = Api.direct k proc in
         let a, b = ok_int (Api.socketpair api) in
         (* Nothing readable yet: poll times out empty. *)
         let ready =
           ok_int (Api.poll api [ (a, Flags.epollin) ] ~timeout_ms:1)
         in
         Alcotest.(check int) "timeout empty" 0 (List.length ready);
         (* a is writable though. *)
         let ready =
           ok_int (Api.poll api [ (a, Flags.epollout) ] ~timeout_ms:0)
         in
         Alcotest.(check int) "writable" 1 (List.length ready);
         (* Once the peer writes, a becomes readable. *)
         ignore (ok_int (Api.send api b (Bytes.of_string "x")));
         (match ok_int (Api.poll api [ (a, Flags.epollin) ] ~timeout_ms:(-1)) with
         | [ (fd, ev) ] ->
           Alcotest.(check int) "fd" a fd;
           Alcotest.(check bool) "POLLIN" true (ev land Flags.epollin <> 0)
         | l -> Alcotest.failf "expected one entry, got %d" (List.length l));
         (* Unknown fd reports POLLNVAL-ish readiness immediately. *)
         let ready = ok_int (Api.poll api [ (99, Flags.epollin) ] ~timeout_ms:0) in
         Alcotest.(check int) "bad fd reported" 1 (List.length ready)))
  |> ignore;
  run_checked eng

let test_poll_wakes_on_data () =
  let eng = E.create () in
  let k = K.create eng in
  let proc = K.new_proc k "p" in
  let woke_at = ref 0L in
  ignore
    (E.spawn eng (fun () ->
         let api = Api.direct k proc in
         let a, b = ok_int (Api.socketpair api) in
         ignore
           (E.spawn_here ~name:"poller" (fun () ->
                ignore
                  (ok_int (Api.poll api [ (a, Flags.epollin) ] ~timeout_ms:500));
                woke_at := E.now_cycles ()));
         ignore
           (E.spawn_here ~name:"writer" (fun () ->
                E.consume 200_000;
                ignore (ok_int (Api.send api b (Bytes.of_string "go")))))));
  run_checked eng;
  (* Poll re-checks on a 50k-cycle tick, so it wakes within one tick of
     the write at 200k cycles, far before the 500 ms timeout. *)
  Alcotest.(check bool)
    (Printf.sprintf "woke shortly after data (%Ld)" !woke_at)
    true
    (!woke_at >= 200_000L && !woke_at < 400_000L)

let test_select () =
  let eng = E.create () in
  let k = K.create eng in
  let proc = K.new_proc k "p" in
  ignore
    (E.spawn eng (fun () ->
         let api = Api.direct k proc in
         let a, b = ok_int (Api.socketpair api) in
         let ready =
           ok_int (Api.select api ~read:[ a ] ~write:[ a ] ~timeout_ms:0)
         in
         (* Nothing to read, but writable. *)
         Alcotest.(check (list (pair int int)))
           "only writable"
           [ (a, Flags.epollout) ]
           ready;
         ignore (ok_int (Api.send api b (Bytes.of_string "hi")));
         let ready =
           ok_int (Api.select api ~read:[ a ] ~write:[] ~timeout_ms:(-1))
         in
         Alcotest.(check (list (pair int int)))
           "readable after send"
           [ (a, Flags.epollin) ]
           ready));
  run_checked eng

let test_strace () =
  in_proc (fun _k api ->
      let api, trace = Varan_kernel.Strace.attach api in
      let fd = ok_int (Api.openf api "/dev/null" Flags.o_rdonly) in
      ignore (ok_bytes (Api.read api fd 16));
      ignore (ok_int (Api.close api fd));
      Alcotest.(check int) "three calls" 3 (Varan_kernel.Strace.calls trace);
      match Varan_kernel.Strace.lines trace with
      | [ o; r; c ] ->
        let has_prefix p s =
          String.length s >= String.length p && String.sub s 0 (String.length p) = p
        in
        Alcotest.(check bool) "open line" true (has_prefix "open(" o);
        Alcotest.(check bool) "open returns fd" true
          (String.length o > 2 && o.[String.length o - 2] = ' ');
        Alcotest.(check bool) "read line" true (has_prefix "read(" r);
        Alcotest.(check bool) "close line" true (has_prefix "close(" c)
      | l -> Alcotest.failf "expected 3 lines, got %d" (List.length l))

let test_strace_limit () =
  in_proc (fun _k api ->
      let api, trace = Varan_kernel.Strace.attach ~limit:2 api in
      for _ = 1 to 5 do
        ignore (Api.getuid api)
      done;
      Alcotest.(check int) "all counted" 5 (Varan_kernel.Strace.calls trace);
      Alcotest.(check int) "only limit kept" 2
        (List.length (Varan_kernel.Strace.lines trace)))

(* A canonical invocation for every implemented syscall: the dispatcher
   must return success or a proper errno for each — never crash, never
   ENOSYS for calls the table claims to implement (except the few that
   are process-control primitives handled above the kernel). *)
let test_every_syscall_dispatches () =
  let module S = Varan_syscall.Sysno in
  let module A = Varan_syscall.Args in
  let eng = E.create () in
  let k = K.create eng in
  let proc = K.new_proc k "matrix" in
  let tid =
    E.spawn eng (fun () ->
        let api = Api.direct k proc in
        (* A small zoo of resources for fd-based calls. *)
        let file =
          ok_int (Api.openf api "/tmp/matrix" Flags.(o_rdwr lor o_creat))
        in
        ignore (ok_int (Api.write_str api file "0123456789abcdef"));
        let sock_a, sock_b = ok_int (Api.socketpair api) in
        ignore (ok_int (Api.send api sock_b (Bytes.of_string "data")));
        let args_for (s : S.t) : A.t option =
          match s with
          | S.Read | S.Pread64 | S.Readv -> Some [| A.Int sock_a; A.Buf_out 4 |]
          | S.Write | S.Pwrite64 | S.Writev ->
            Some [| A.Int file; A.Buf_in (Bytes.of_string "x") |]
          | S.Open | S.Openat -> Some [| A.Str "/tmp/matrix"; A.Int 0; A.Int 0 |]
          | S.Close -> Some [| A.Int (ok_int (Api.dup api file)) |]
          | S.Stat | S.Lstat -> Some [| A.Str "/tmp/matrix"; A.Buf_out 144 |]
          | S.Fstat -> Some [| A.Int file; A.Buf_out 144 |]
          | S.Poll -> Some [| A.Buf_in Bytes.empty; A.Int 0; A.Buf_out 0 |]
          | S.Select ->
            Some [| A.Buf_in Bytes.empty; A.Buf_in Bytes.empty; A.Int 0 |]
          | S.Lseek -> Some [| A.Int file; A.Int 0; A.Int 0 |]
          | S.Mmap -> Some [| A.Int 0; A.Int 4096 |]
          | S.Mprotect | S.Munmap -> Some [| A.Int 0; A.Int 4096; A.Int 0 |]
          | S.Brk -> Some [| A.Int 0 |]
          | S.Rt_sigaction | S.Rt_sigprocmask | S.Rt_sigreturn ->
            Some [| A.Int 10; A.Int 0; A.Int 0 |]
          | S.Ioctl -> Some [| A.Int file; A.Int 0; A.Int 0 |]
          | S.Access -> Some [| A.Str "/tmp/matrix"; A.Int 0 |]
          | S.Pipe -> Some [| A.Buf_out 8 |]
          | S.Sched_yield | S.Getpid | S.Getppid | S.Getuid | S.Getgid
          | S.Geteuid | S.Getegid | S.Setsid -> Some [||]
          | S.Madvise -> Some [| A.Int 0; A.Int 4096; A.Int 1 |]
          | S.Dup -> Some [| A.Int file |]
          | S.Dup2 -> Some [| A.Int file; A.Int 50 |]
          | S.Nanosleep -> Some [| A.Int 10; A.Int 0 |]
          | S.Sendfile -> Some [| A.Int file; A.Int file; A.Int 0; A.Int 4 |]
          | S.Socket -> Some [| A.Int 2; A.Int 1; A.Int 0 |]
          | S.Connect -> Some [| A.Int sock_a; A.Int 59999 |]
          | S.Accept | S.Accept4 -> Some [| A.Int sock_a; A.Int 0; A.Int 0 |]
          | S.Sendto | S.Sendmsg ->
            Some [| A.Int sock_a; A.Buf_in (Bytes.of_string "y"); A.Int 0 |]
          | S.Recvfrom | S.Recvmsg ->
            Some [| A.Int sock_a; A.Buf_out 4; A.Int 0 |]
          | S.Shutdown -> Some [| A.Int sock_a; A.Int 1 |]
          | S.Bind -> Some [| A.Int sock_a; A.Int 58888 |]
          | S.Listen -> Some [| A.Int sock_a; A.Int 8 |]
          | S.Getsockname | S.Getpeername -> Some [| A.Int sock_a; A.Buf_out 4 |]
          | S.Socketpair -> Some [| A.Buf_out 8 |]
          | S.Setsockopt | S.Getsockopt ->
            Some [| A.Int sock_a; A.Int 1; A.Int 2; A.Buf_out 4 |]
          | S.Clone | S.Fork | S.Execve | S.Exit | S.Exit_group | S.Pause
          | S.Kill ->
            None (* handled above the raw dispatcher or terminates the task *)
          | S.Wait4 -> None (* needs children; covered elsewhere *)
          | S.Uname -> Some [| A.Buf_out 65 |]
          | S.Fcntl -> Some [| A.Int file; A.Int 3; A.Int 0 |]
          | S.Flock -> Some [| A.Int file; A.Int 2 |]
          | S.Fsync | S.Fdatasync -> Some [| A.Int file |]
          | S.Ftruncate -> Some [| A.Int file; A.Int 4 |]
          | S.Getdents -> Some [| A.Int file; A.Buf_out 256 |]
          | S.Getcwd -> Some [| A.Buf_out 64 |]
          | S.Chdir -> Some [| A.Str "/tmp" |]
          | S.Rename -> Some [| A.Str "/tmp/matrix"; A.Str "/tmp/matrix2" |]
          | S.Mkdir -> Some [| A.Str "/tmp/mdir"; A.Int 0o755 |]
          | S.Rmdir -> Some [| A.Str "/tmp/mdir" |]
          | S.Unlink -> Some [| A.Str "/tmp/matrix2" |]
          | S.Readlink -> Some [| A.Str "/tmp"; A.Buf_out 32 |]
          | S.Chmod -> Some [| A.Str "/tmp"; A.Int 0o755 |]
          | S.Umask -> Some [| A.Int 0o022 |]
          | S.Gettimeofday | S.Clock_gettime ->
            Some [| A.Int 0; A.Buf_out 16 |]
          | S.Getrlimit | S.Getrusage -> Some [| A.Int 0; A.Buf_out 16 |]
          | S.Times -> Some [| A.Buf_out 16 |]
          | S.Setuid | S.Setgid -> Some [| A.Int 1000 |]
          | S.Time -> Some [| A.Int 0 |]
          | S.Futex -> Some [| A.Int 77; A.Int 1; A.Int 1 |] (* wake: no block *)
          | S.Epoll_create -> Some [| A.Int 0 |]
          | S.Epoll_wait -> None (* needs an epoll fd; covered elsewhere *)
          | S.Epoll_ctl -> None
          | S.Getcpu -> Some [| A.Buf_out 8 |]
          | S.Getrandom -> Some [| A.Buf_out 8; A.Int 0 |]
        in
        List.iter
          (fun sysno ->
            match args_for sysno with
            | None -> ()
            | Some args ->
              let r = api.Api.sys sysno args in
              let errno_ok =
                r.A.ret >= 0
                ||
                match A.errno_of r with
                | Some e -> e <> Errno.ENOSYS
                | None -> false
              in
              Alcotest.(check bool)
                (Varan_syscall.Sysno.name sysno ^ " dispatches")
                true errno_ok)
          Varan_syscall.Sysno.all)
  in
  K.register_task k proc tid;
  run_checked ~quiescent:true eng

(* ------------------------------------------------------------------ *)
(* Epoll ready lists                                                   *)
(* ------------------------------------------------------------------ *)

module T = Varan_kernel.Types
module Bq = Varan_kernel.Bytequeue

(* The reference: readiness recomputed from the object graph, and an
   epoll_wait that scans every watch, sorts by fd and keeps the lowest
   [maxevents]. *)
let rec ref_read (o : T.ofile) =
  match o.T.kind with
  | T.K_file _ -> true
  | T.K_pipe_r p -> (not (Bq.is_empty p.T.p_q)) || p.T.p_writers = 0
  | T.K_pipe_w _ -> false
  | T.K_sock ep -> (not (Bq.is_empty ep.T.ep_rx)) || ep.T.ep_peer_closed
  | T.K_listen l -> not (Queue.is_empty l.T.l_backlog)
  | T.K_epoll e -> ref_scan e max_int <> []

and ref_write (o : T.ofile) =
  match o.T.kind with
  | T.K_file _ -> true
  | T.K_pipe_w p -> Bq.space p.T.p_q > 0 || p.T.p_readers = 0
  | T.K_sock ep -> (
    (not ep.T.ep_closed)
    &&
    match ep.T.ep_peer with
    | None -> false
    | Some peer -> peer.T.ep_peer_closed || Bq.space peer.T.ep_rx > 0)
  | T.K_pipe_r _ | T.K_listen _ | T.K_epoll _ -> false

and ref_scan (e : T.epoll) maxevents =
  Hashtbl.fold
    (fun fd (w : T.watch) acc ->
      let ev =
        (if w.T.w_events land Flags.epollin <> 0 && ref_read w.T.w_ofile then
           Flags.epollin
         else 0)
        lor
        if w.T.w_events land Flags.epollout <> 0 && ref_write w.T.w_ofile then
          Flags.epollout
        else 0
      in
      if ev <> 0 then (fd, ev) :: acc else acc)
    e.T.e_watches []
  |> List.sort compare
  |> List.filteri (fun i _ -> i < maxevents)

let epoll_of proc fd =
  match (Hashtbl.find proc.T.fds fd).T.fde_ofile.T.kind with
  | T.K_epoll e -> e
  | _ -> Alcotest.failf "fd %d is not an epoll" fd

(* One random program over non-blocking sockets, pipes, listeners, a
   regular file and a nested epoll, in one task: ADD/MOD/DEL with random
   masks, reads and writes (some large enough to fill a pipe), close,
   shutdown, FIN, connect and listen after ADD, and link latency on
   every third seed. Every epoll_wait, with small and large
   [maxevents], must return what the full scan finds. Most waits do not
   block; a blocking one waits on the outer epoll after the inner one
   starts watching a fresh pipe that a second task writes, so it parks
   whenever nothing else is ready and only the nested notification can
   wake it. Returns the number of waits checked and how many of them
   parked. *)
let epoll_differential_case seed =
  let rng = Random.State.make [| 0xE9011; seed |] in
  let int n = Random.State.int rng n in
  let link_latency = if seed mod 3 = 0 then 40 else 0 in
  let eng = E.create () in
  let k = K.create ~link_latency eng in
  let proc = K.new_proc k "epoll-diff" in
  let checks = ref 0 and parked = ref 0 in
  let tid =
    E.spawn eng (fun () ->
        let api = Api.direct k proc in
        let fds = ref [] and socks = ref [] and listeners = ref [] in
        let unconnected = ref [] in
        let fresh ?(sock = false) fd =
          Result.get_ok (K.set_nonblock proc fd true);
          fds := fd :: !fds;
          if sock then socks := fd :: !socks
        in
        let pick l = List.nth l (int (List.length l)) in
        let outer = ok_int (Api.epoll_create api) in
        let inner = ok_int (Api.epoll_create api) in
        let file =
          ok_int (Api.openf api "/tmp/f" (Flags.o_rdwr lor Flags.o_creat))
        in
        fresh file;
        let next_port = ref 20_000 in
        let mask () =
          match int 4 with
          | 0 -> Flags.epollin
          | 1 -> Flags.epollout
          | 2 -> Flags.epollin lor Flags.epollout
          | _ -> 0
        in
        (* The outer epoll may watch the inner one, never the reverse. *)
        let target ep =
          if ep = outer && int 8 = 0 then Some inner
          else if !fds = [] then None
          else Some (pick !fds)
        in
        let ctl op ep =
          match target ep with
          | Some fd -> ignore (Api.epoll_ctl api ep op fd (mask ()))
          | None -> ()
        in
        let epoll () = if int 3 = 0 then inner else outer in
        let check ?(timeout_ms = 0) ep =
          let maxevents = if int 2 = 0 then 64 else 1 + int 3 in
          let got =
            match Api.epoll_wait api ep ~max_events:maxevents ~timeout_ms with
            | Ok l -> l
            | Error e -> Alcotest.failf "epoll_wait: %s" (Errno.name e)
          in
          let want = ref_scan (epoll_of proc ep) maxevents in
          let show l =
            String.concat " "
              (List.map (fun (fd, ev) -> Printf.sprintf "%d:%d" fd ev) l)
          in
          if got <> want then
            Alcotest.failf
              "seed %d: epoll_wait(maxevents %d) = [%s], full scan [%s]" seed
              maxevents (show got) (show want);
          incr checks
        in
        for _ = 1 to 40 + int 40 do
          (match int 16 with
          | 0 -> (
            match Api.socketpair api with
            | Ok (a, b) ->
              fresh ~sock:true a;
              fresh ~sock:true b
            | Error _ -> ())
          | 1 -> (
            match Api.pipe api with
            | Ok (r, w) ->
              fresh r;
              fresh w
            | Error _ -> ())
          | 2 ->
            (* An unconnected socket, sometimes watched before it
               connects. *)
            let s = ok_int (Api.socket api) in
            fresh ~sock:true s;
            unconnected := s :: !unconnected;
            if int 3 > 0 then
              ignore
                (Api.epoll_ctl api (epoll ()) Flags.epoll_ctl_add s
                   (Flags.epollout lor if int 2 = 0 then Flags.epollin else 0))
          | 3 ->
            (* A listener, sometimes watched before it listens. *)
            let s = ok_int (Api.socket api) in
            fresh s;
            incr next_port;
            ok_unit (Api.bind api s !next_port);
            if int 3 > 0 then
              ignore
                (Api.epoll_ctl api (epoll ()) Flags.epoll_ctl_add s
                   (Flags.epollin lor if int 2 = 0 then Flags.epollout else 0));
            ok_unit (Api.listen api s);
            listeners := (s, !next_port) :: !listeners
          | 4 when !socks <> [] && !listeners <> [] ->
            let s =
              match !unconnected with
              | s :: rest ->
                unconnected := rest;
                s
              | [] -> pick !socks
            in
            ignore (Api.connect api s (snd (pick !listeners)))
          | 5 when !listeners <> [] -> (
            match Api.accept api (fst (pick !listeners)) with
            | Ok c -> fresh ~sock:true c
            | Error _ -> ())
          | 6 | 7 -> ctl Flags.epoll_ctl_add (epoll ())
          | 8 -> ctl Flags.epoll_ctl_mod (epoll ())
          | 9 -> ctl Flags.epoll_ctl_del (epoll ())
          | 10 when !fds <> [] ->
            let n = if int 6 = 0 then 40_000 else 1 + int 64 in
            ignore (Api.write api (pick !fds) (Bytes.make n 'w'))
          | 11 when !fds <> [] ->
            let n = if int 4 = 0 then 100_000 else 1 + int 64 in
            ignore (Api.read api (pick !fds) n)
          | 12 when !fds <> [] ->
            let fd = pick !fds in
            ignore (Api.close api fd);
            fds := List.filter (( <> ) fd) !fds;
            socks := List.filter (( <> ) fd) !socks;
            unconnected := List.filter (( <> ) fd) !unconnected;
            listeners := List.filter (fun (l, _) -> l <> fd) !listeners
          | 13 when !socks <> [] ->
            ignore (Api.shutdown api (pick !socks) Flags.shut_wr)
          | 14 -> E.consume (int 120)
          | 15 ->
            let r, w = Result.get_ok (Api.pipe api) in
            fresh r;
            fresh w;
            (* A watch outlives its fd's close here, so a reused fd
               number still has one: replace it. *)
            let watch ep fd =
              ok_unit (Api.epoll_ctl api ep Flags.epoll_ctl_del fd 0);
              ok_unit
                (Api.epoll_ctl api ep Flags.epoll_ctl_add fd Flags.epollin)
            in
            watch inner r;
            watch outer inner;
            let written = ref false and delay = 2_000 + int 2_000 in
            ignore
              (E.spawn eng ~name:"writer" (fun () ->
                   let api = Api.direct k proc in
                   E.consume delay;
                   if E.Cond.waiters (epoll_of proc outer).T.e_cond > 0 then
                     incr parked;
                   ignore (ok_int (Api.write api w (Bytes.of_string "x")));
                   written := true));
            check ~timeout_ms:(-1) outer;
            (* The writer is done before the program goes on. *)
            while not !written do
              E.consume 50
            done
          | _ -> ());
          if int 2 = 0 then check (epoll ())
        done;
        E.consume 200;
        check outer;
        check inner)
  in
  K.register_task k proc tid;
  run_checked eng;
  (!checks, !parked)

let test_epoll_ready_list_differential () =
  let checks = ref 0 and parked = ref 0 in
  for seed = 0 to 199 do
    let c, p = epoll_differential_case seed in
    checks := !checks + c;
    parked := !parked + p
  done;
  Alcotest.(check bool) "thousands of waits checked" true (!checks > 4_000);
  Alcotest.(check bool) "blocking waits on the nested epoll parked" true
    (!parked > 50)

(* A client reading its reply drains the server's send window, which
   notifies the server's watch on the connection; the watch asks only
   for EPOLLIN, so the server, parked in epoll_wait, stays parked: the
   read costs exactly the task switches of the same read on an
   unwatched socket pair (its own inline consumes), where a wake would
   add the server's resumption and the client's own. *)
let test_epoll_reply_read_wakes_nobody () =
  let eng = E.create () in
  let k = K.create eng in
  let sproc = K.new_proc k "server" and cproc = K.new_proc k "client" in
  let epfd = ref (-1) and switches = ref (-1, -1) in
  let served = ref false in
  ignore
    (E.spawn eng ~name:"server" (fun () ->
         let api = Api.direct k sproc in
         let lfd = ok_int (Api.socket api) in
         ok_unit (Api.bind api lfd 7171);
         ok_unit (Api.listen api lfd);
         let ep = ok_int (Api.epoll_create api) in
         epfd := ep;
         let c = ok_int (Api.accept api lfd) in
         ok_unit (Api.epoll_ctl api ep Flags.epoll_ctl_add c Flags.epollin);
         let req = ok_bytes (Api.recv api c 16) in
         ignore (ok_int (Api.send api c req));
         (* Parks until the client's FIN: the reply read must not wake
            it in between. *)
         (match Api.epoll_wait api ep ~max_events:8 ~timeout_ms:(-1) with
         | Ok [ (fd, ev) ] when fd = c && ev = Flags.epollin -> ()
         | _ -> Alcotest.fail "server woke without EOF");
         Alcotest.(check int) "EOF" 0 (Bytes.length (ok_bytes (Api.recv api c 16)));
         served := true));
  ignore
    (E.spawn eng ~name:"client" (fun () ->
         let api = Api.direct k cproc in
         E.consume 1_000;
         let s = ok_int (Api.socket api) in
         ok_unit (Api.connect api s 7171);
         ignore (ok_int (Api.send api s (Bytes.of_string "ping")));
         (* Long enough for the server to reply and park. *)
         E.consume 50_000;
         Alcotest.(check int) "server parked before the reply read" 1
           (E.Cond.waiters (epoll_of sproc !epfd).T.e_cond);
         let a, b = Result.get_ok (Api.socketpair api) in
         ignore (ok_int (Api.send api a (Bytes.of_string "ping")));
         let counted f =
           let s0 = E.task_switches eng in
           let r = f () in
           (r, E.task_switches eng - s0)
         in
         let _, unwatched = counted (fun () -> ok_bytes (Api.recv api b 16)) in
         let reply, watched = counted (fun () -> ok_bytes (Api.recv api s 16)) in
         switches := (unwatched, watched);
         Alcotest.(check string) "reply" "ping" (Bytes.to_string reply);
         ignore (ok_int (Api.close api s))));
  run_checked eng;
  let unwatched, watched = !switches in
  Alcotest.(check bool) "the reads were measured" true (unwatched > 0);
  Alcotest.(check int) "switches of the reply read" unwatched watched;
  Alcotest.(check bool) "server saw EOF" true !served

(* A socket watched for EPOLLOUT before it connects becomes writable at
   connect: the epoll's waiter must wake then. *)
let test_epoll_connect_after_add_wakes () =
  let eng = E.create () in
  let k = K.create eng in
  let lproc = K.new_proc k "listener" and proc = K.new_proc k "client" in
  let result = ref [] and sock = ref (-1) in
  ignore
    (E.spawn eng ~name:"listener" (fun () ->
         let api = Api.direct k lproc in
         let lfd = ok_int (Api.socket api) in
         ok_unit (Api.bind api lfd 7272);
         ok_unit (Api.listen api lfd)));
  ignore
    (E.spawn eng ~name:"waiter" (fun () ->
         let api = Api.direct k proc in
         E.consume 100;
         let s = ok_int (Api.socket api) in
         sock := s;
         let ep = ok_int (Api.epoll_create api) in
         ok_unit (Api.epoll_ctl api ep Flags.epoll_ctl_add s Flags.epollout);
         result := ok_int (Api.epoll_wait api ep ~max_events:8 ~timeout_ms:(-1))));
  ignore
    (E.spawn eng ~name:"connector" (fun () ->
         let api = Api.direct k proc in
         E.consume 5_000;
         ok_unit (Api.connect api !sock 7272)));
  run_checked eng;
  Alcotest.(check (list (pair int int)))
    "woken writable" [ (!sock, Flags.epollout) ] !result

(* An outer epoll whose only watch is an inner epoll, which watches a
   pipe: a write to the pipe makes the inner epoll readable, and the
   waiter blocked on the outer one must wake then. *)
let test_epoll_nested_wakes () =
  let eng = E.create () in
  let k = K.create eng in
  let proc = K.new_proc k "nested" in
  let result = ref [] and inner = ref (-1) and outer = ref (-1) in
  let wfd = ref (-1) in
  ignore
    (E.spawn eng ~name:"waiter" (fun () ->
         let api = Api.direct k proc in
         let r, w = Result.get_ok (Api.pipe api) in
         wfd := w;
         inner := ok_int (Api.epoll_create api);
         outer := ok_int (Api.epoll_create api);
         ok_unit (Api.epoll_ctl api !inner Flags.epoll_ctl_add r Flags.epollin);
         ok_unit
           (Api.epoll_ctl api !outer Flags.epoll_ctl_add !inner Flags.epollin);
         result :=
           ok_int (Api.epoll_wait api !outer ~max_events:8 ~timeout_ms:(-1))));
  ignore
    (E.spawn eng ~name:"writer" (fun () ->
         let api = Api.direct k proc in
         E.consume 50_000;
         Alcotest.(check int) "waiter parked on the outer epoll" 1
           (E.Cond.waiters (epoll_of proc !outer).T.e_cond);
         ignore (ok_int (Api.write api !wfd (Bytes.of_string "x")))));
  run_checked eng;
  Alcotest.(check (list (pair int int)))
    "woken by the inner epoll" [ (!inner, Flags.epollin) ] !result

(* epoll_wait encodes what it collected before it charges for the copy:
   that charge may park the waiter, and threads sharing the epoll may
   change its ready list meanwhile. One run: an epoll watches [x1] with
   an empty mask and [x2] for EPOLLIN (x1 < x2), both sockets hold data,
   and a waiter calls epoll_wait at cycle [t], so it collects x2 at
   entry. Optional threads act at given cycles: DEL [x2], MOD [x1] to
   EPOLLIN (queueing it, now ready), and a non-blocking epoll_wait that
   re-collects the list. Returns the waiter's events, with x1 and x2 as
   1 and 2, and [t]. *)
let epoll_shared_run ?del_at ?mod_at ?wait_at () =
  let eng = E.create () in
  let k = K.create eng in
  let proc = K.new_proc k "threads" in
  let ep = ref (-1) and x1 = ref (-1) and x2 = ref (-1) in
  let result = ref [] and t = ref 0 in
  ignore
    (E.spawn eng ~name:"waiter" (fun () ->
         let api = Api.direct k proc in
         let a, b = Result.get_ok (Api.socketpair api) in
         let c, d = Result.get_ok (Api.socketpair api) in
         x1 := a;
         x2 := c;
         ep := ok_int (Api.epoll_create api);
         ok_unit (Api.epoll_ctl api !ep Flags.epoll_ctl_add a 0);
         ok_unit (Api.epoll_ctl api !ep Flags.epoll_ctl_add c Flags.epollin);
         ignore (ok_int (Api.send api b (Bytes.of_string "y")));
         ignore (ok_int (Api.send api d (Bytes.of_string "x")));
         t := E.clock ();
         result := ok_int (Api.epoll_wait api !ep ~max_events:8 ~timeout_ms:5)));
  let thread at name f =
    Option.iter
      (fun at ->
        ignore
          (E.spawn eng ~name (fun () ->
               E.consume at;
               f (Api.direct k proc))))
      at
  in
  thread del_at "del" (fun api ->
      ok_unit (Api.epoll_ctl api !ep Flags.epoll_ctl_del !x2 0));
  thread mod_at "mod" (fun api ->
      ok_unit (Api.epoll_ctl api !ep Flags.epoll_ctl_mod !x1 Flags.epollin));
  thread wait_at "rewait" (fun api ->
      ignore (Api.epoll_wait api !ep ~max_events:8 ~timeout_ms:0));
  run_checked eng;
  let events =
    List.map
      (fun (fd, ev) ->
        Alcotest.(check int) "EPOLLIN" Flags.epollin ev;
        if fd = !x1 then 1 else if fd = !x2 then 2 else Alcotest.failf "fd %d" fd)
      !result
  in
  (events, !t)

let show l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"

(* DEL [x2] at every cycle from before the waiter's call until it
   reports, so one run deletes inside the charge: the waiter must
   report x2 exactly when it was still watched at the collect. Returns
   the first cycle at which it reports, the start of the charge. *)
let epoll_del_sweep () =
  let _, t = epoll_shared_run () in
  let rec go at =
    if at > t + 5_000 then Alcotest.fail "the waiter never reported"
    else
      match fst (epoll_shared_run ~del_at:at ()) with
      | [] -> go (at + 1)
      | [ 2 ] when at > t - 100 -> at
      | l -> Alcotest.failf "DEL at %d: reported %s" at (show l)
  in
  go (t - 100)

let test_epoll_shared_del_during_charge () = ignore (epoll_del_sweep ())

(* Around the charge, one thread makes [x1] ready with MOD and a second
   re-collects; epoll_wait's flat cost is [lead] cycles above
   epoll_ctl's, so the second calls that much earlier to collect just
   after the MOD. The waiter collected x2, so it must report it, with x1
   only if the MOD came before the collect; never x1 alone, which is
   what encoding after the charge reports. *)
let test_epoll_shared_wait_during_charge () =
  let start = epoll_del_sweep () in
  let base = Varan_cycles.Cost.default.native_base in
  let lead = base Varan_syscall.Sysno.Epoll_wait - base Epoll_ctl in
  for mod_at = start - 2 to start + 2 do
    for wait_at = mod_at - lead - 4 to mod_at - lead + 4 do
      match fst (epoll_shared_run ~mod_at ~wait_at ()) with
      | [ 2 ] | [ 1; 2 ] -> ()
      | l ->
        Alcotest.failf "MOD at %d, re-collect at %d: reported %s" mod_at
          wait_at (show l)
    done
  done

let () =
  Alcotest.run "varan_kernel"
    [
      ( "files",
        [
          Alcotest.test_case "dev null" `Quick test_dev_null;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "open ENOENT" `Quick test_open_enoent;
          Alcotest.test_case "close EBADF" `Quick test_close_ebadf;
          Alcotest.test_case "O_TRUNC and O_APPEND" `Quick
            test_o_trunc_and_append;
          Alcotest.test_case "urandom" `Quick test_urandom;
          Alcotest.test_case "dup shares offset" `Quick test_dup_shares_offset;
          Alcotest.test_case "lowest-free fd" `Quick
            test_fd_numbers_lowest_free;
          Alcotest.test_case "vfs ops" `Quick test_vfs_ops;
        ] );
      ( "pipes+sockets",
        [
          Alcotest.test_case "pipe blocking" `Quick test_pipe_blocking;
          Alcotest.test_case "socket roundtrip" `Quick test_socket_roundtrip;
          Alcotest.test_case "socket EOF on close" `Quick
            test_socket_eof_on_close;
          Alcotest.test_case "connect refused" `Quick test_connect_refused;
          Alcotest.test_case "nonblocking EAGAIN" `Quick
            test_nonblocking_read_eagain;
          Alcotest.test_case "epoll server pattern" `Quick
            test_epoll_server_pattern;
          Alcotest.test_case "200-seed ready list == full scan" `Quick
            test_epoll_ready_list_differential;
          Alcotest.test_case "epoll: reply read wakes nobody" `Quick
            test_epoll_reply_read_wakes_nobody;
          Alcotest.test_case "epoll: connect after ADD wakes" `Quick
            test_epoll_connect_after_add_wakes;
          Alcotest.test_case "epoll: nested epoll wakes its waiter" `Quick
            test_epoll_nested_wakes;
          Alcotest.test_case "epoll: DEL in the copy charge" `Quick
            test_epoll_shared_del_during_charge;
          Alcotest.test_case "epoll: re-collect in the copy charge" `Quick
            test_epoll_shared_wait_during_charge;
          Alcotest.test_case "link latency" `Quick
            test_link_latency_delays_delivery;
        ] );
      ( "process+misc",
        [
          Alcotest.test_case "futex wait/wake" `Quick test_futex_wait_wake;
          Alcotest.test_case "time advances" `Quick test_time_advances;
          Alcotest.test_case "pid and ids" `Quick test_getpid_and_ids;
          Alcotest.test_case "fork shares descriptions" `Quick
            test_fork_proc_shares_descriptions;
          Alcotest.test_case "exit_group" `Quick test_exit_group_kills_process;
          Alcotest.test_case "dup2/getdents" `Quick test_dup2_and_getdents;
          Alcotest.test_case "shutdown write half" `Quick
            test_shutdown_write_half;
          Alcotest.test_case "chdir/getcwd" `Quick test_chdir_getcwd;
          Alcotest.test_case "socketpair" `Quick
            test_socketpair_bidirectional;
          Alcotest.test_case "poll ready/timeout" `Quick
            test_poll_ready_and_timeout;
          Alcotest.test_case "poll wakes on data" `Quick
            test_poll_wakes_on_data;
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "full syscall matrix" `Quick
            test_every_syscall_dispatches;
          Alcotest.test_case "strace" `Quick test_strace;
          Alcotest.test_case "strace limit" `Quick test_strace_limit;
        ] );
    ]
