open Varan_syscall
module E = Varan_sim.Engine

type t = {
  proc : Types.proc;
  sys : Sysno.t -> Args.t -> Args.result;
  mutable compute_scale_c1000 : int;
  mutable fork_child : ((t -> unit) -> int) option;
  mutable checkpoint_hook : ((unit -> Bytes.t) -> unit) option;
  mutable resume_state : Bytes.t option;
}

let rec direct k proc =
  let api =
    {
      proc;
      sys = (fun sysno args -> Kernel.exec k proc sysno args);
      compute_scale_c1000 = 1000;
      fork_child = None;
      checkpoint_hook = None;
      resume_state = None;
    }
  in
  api.fork_child <-
    Some
      (fun body ->
        (* Plain fork: duplicate the process, charge the fork cost, run
           the child body in a fresh task with its own direct API. *)
        let child = Kernel.fork_proc k proc (proc.Types.pname ^ ".child") in
        E.consume ((Kernel.cost k).Varan_cycles.Cost.native_base Sysno.Fork);
        let child_api = direct k child in
        child_api.compute_scale_c1000 <- api.compute_scale_c1000;
        let tid =
          E.spawn_here ~name:child.Types.pname (fun () ->
              try body child_api with E.Killed -> ())
        in
        Kernel.register_task k child tid;
        child.Types.pid);
  api

let with_sys proc sys =
  {
    proc;
    sys;
    compute_scale_c1000 = 1000;
    fork_child = None;
    checkpoint_hook = None;
    resume_state = None;
  }

let fork api body =
  match api.fork_child with
  | Some f -> f body
  | None -> invalid_arg "Api.fork: no fork hook installed"

let lift (r : Args.result) : (int, Errno.t) result =
  match Args.errno_of r with Some e -> Error e | None -> Ok r.Args.ret

let lift_unit r = Result.map (fun (_ : int) -> ()) (lift r)

let lift_out (r : Args.result) : (Bytes.t, Errno.t) result =
  match Args.errno_of r with
  | Some e -> Error e
  | None -> Ok (match r.Args.out with Some b -> b | None -> Bytes.empty)

(* Files *)

let openf api path flags =
  lift (api.sys Sysno.Open [| Args.Str path; Args.Int flags; Args.Int 0o644 |])

let close api fd = lift (api.sys Sysno.Close [| Args.Int fd |])

let read api fd len =
  lift_out (api.sys Sysno.Read [| Args.Int fd; Args.Buf_out len |])

let write api fd data =
  lift (api.sys Sysno.Write [| Args.Int fd; Args.Buf_in data |])

let write_str api fd s = write api fd (Bytes.of_string s)

let write_all api fd data =
  let len = Bytes.length data in
  let rec go sent =
    if sent >= len then Ok ()
    else
      match write api fd (Bytes.sub data sent (len - sent)) with
      | Error e -> Error e
      | Ok 0 -> Error Errno.EIO
      | Ok n -> go (sent + n)
  in
  go 0

let lseek api fd offset whence =
  lift
    (api.sys Sysno.Lseek [| Args.Int fd; Args.Int offset; Args.Int whence |])

let get_le64 b ofs =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get b (ofs + i))))
  done;
  !v

let stat_size api path =
  match lift_out (api.sys Sysno.Stat [| Args.Str path; Args.Buf_out 144 |]) with
  | Error e -> Error e
  | Ok b -> Ok (Int64.to_int (get_le64 b 48))

let fstat_size api fd =
  match lift_out (api.sys Sysno.Fstat [| Args.Int fd; Args.Buf_out 144 |]) with
  | Error e -> Error e
  | Ok b -> Ok (Int64.to_int (get_le64 b 48))

let unlink api path = lift_unit (api.sys Sysno.Unlink [| Args.Str path |])
let mkdir api path = lift_unit (api.sys Sysno.Mkdir [| Args.Str path; Args.Int 0o755 |])

let rename api src dst =
  lift_unit (api.sys Sysno.Rename [| Args.Str src; Args.Str dst |])

let access api path =
  lift_unit (api.sys Sysno.Access [| Args.Str path; Args.Int 0 |])

let fsync api fd = lift_unit (api.sys Sysno.Fsync [| Args.Int fd |])

let fcntl api fd cmd arg =
  lift (api.sys Sysno.Fcntl [| Args.Int fd; Args.Int cmd; Args.Int arg |])

let dup api fd = lift (api.sys Sysno.Dup [| Args.Int fd |])

let pipe api =
  let r = api.sys Sysno.Pipe [| Args.Buf_out 8 |] in
  match Args.errno_of r with
  | Some e -> Error e
  | None -> (
    match r.Args.out with
    | Some b when Bytes.length b = 8 ->
      Ok
        ( Int32.to_int (Bytes.get_int32_le b 0),
          Int32.to_int (Bytes.get_int32_le b 4) )
    | _ -> Error Errno.EIO)

(* Sockets *)

let socket api =
  lift (api.sys Sysno.Socket [| Args.Int 2; Args.Int 1; Args.Int 0 |])

let bind api fd port =
  lift_unit (api.sys Sysno.Bind [| Args.Int fd; Args.Int port |])

let listen api fd =
  lift_unit (api.sys Sysno.Listen [| Args.Int fd; Args.Int 128 |])

let accept api fd =
  lift (api.sys Sysno.Accept [| Args.Int fd; Args.Int 0; Args.Int 0 |])

let connect api fd port =
  lift_unit (api.sys Sysno.Connect [| Args.Int fd; Args.Int port |])

let send api fd data =
  lift (api.sys Sysno.Sendto [| Args.Int fd; Args.Buf_in data; Args.Int 0 |])

let recv api fd len =
  lift_out (api.sys Sysno.Recvfrom [| Args.Int fd; Args.Buf_out len; Args.Int 0 |])

let shutdown api fd how =
  lift_unit (api.sys Sysno.Shutdown [| Args.Int fd; Args.Int how |])

let socketpair api =
  let r = api.sys Sysno.Socketpair [| Args.Buf_out 8 |] in
  match Args.errno_of r with
  | Some e -> Error e
  | None -> (
    match r.Args.out with
    | Some b when Bytes.length b = 8 ->
      Ok
        ( Int32.to_int (Bytes.get_int32_le b 0),
          Int32.to_int (Bytes.get_int32_le b 4) )
    | _ -> Error Errno.EIO)

let poll api entries ~timeout_ms =
  let spec = Bytes.create (8 * List.length entries) in
  List.iteri
    (fun i (fd, events) ->
      Bytes.set_int32_le spec (8 * i) (Int32.of_int fd);
      Bytes.set_int32_le spec ((8 * i) + 4) (Int32.of_int events))
    entries;
  let r =
    api.sys Sysno.Poll
      [| Args.Buf_in spec; Args.Int timeout_ms;
         Args.Buf_out (8 * List.length entries) |]
  in
  match Args.errno_of r with
  | Some e -> Error e
  | None ->
    let b = match r.Args.out with Some b -> b | None -> Bytes.empty in
    Ok
      (List.init
         (Bytes.length b / 8)
         (fun i ->
           ( Int32.to_int (Bytes.get_int32_le b (8 * i)),
             Int32.to_int (Bytes.get_int32_le b ((8 * i) + 4)) )))

let select api ~read ~write ~timeout_ms =
  let enc fds =
    let b = Bytes.create (4 * List.length fds) in
    List.iteri (fun i fd -> Bytes.set_int32_le b (4 * i) (Int32.of_int fd)) fds;
    b
  in
  let r =
    api.sys Sysno.Select
      [| Args.Buf_in (enc read); Args.Buf_in (enc write); Args.Int timeout_ms |]
  in
  match Args.errno_of r with
  | Some e -> Error e
  | None ->
    let b = match r.Args.out with Some b -> b | None -> Bytes.empty in
    Ok
      (List.init
         (Bytes.length b / 8)
         (fun i ->
           ( Int32.to_int (Bytes.get_int32_le b (8 * i)),
             Int32.to_int (Bytes.get_int32_le b ((8 * i) + 4)) )))

(* Event polling *)

let epoll_create api =
  lift (api.sys Sysno.Epoll_create [| Args.Int 0 |])

let epoll_ctl api epfd op fd events =
  lift_unit
    (api.sys Sysno.Epoll_ctl
       [| Args.Int epfd; Args.Int op; Args.Int fd; Args.Int events |])

let epoll_wait api epfd ~max_events ~timeout_ms =
  let r =
    api.sys Sysno.Epoll_wait
      [| Args.Int epfd; Args.Int max_events; Args.Int timeout_ms;
         Args.Buf_out (8 * max_events) |]
  in
  match Args.errno_of r with
  | Some e -> Error e
  | None ->
    let b = match r.Args.out with Some b -> b | None -> Bytes.empty in
    let n = Bytes.length b / 8 in
    let events =
      List.init n (fun i ->
          ( Int32.to_int (Bytes.get_int32_le b (8 * i)),
            Int32.to_int (Bytes.get_int32_le b ((8 * i) + 4)) ))
    in
    Ok events

(* Process, time, misc *)

let ret_or_zero api sysno args =
  match lift (api.sys sysno args) with Ok v -> v | Error _ -> 0

let getpid api = ret_or_zero api Sysno.Getpid [||]
let getuid api = ret_or_zero api Sysno.Getuid [||]
let geteuid api = ret_or_zero api Sysno.Geteuid [||]
let getgid api = ret_or_zero api Sysno.Getgid [||]
let getegid api = ret_or_zero api Sysno.Getegid [||]
let time api = ret_or_zero api Sysno.Time [| Args.Int 0 |]

let decode_time_ns b =
  if Bytes.length b < 16 then 0L
  else
    Int64.add
      (Int64.mul (get_le64 b 0) 1_000_000_000L)
      (get_le64 b 8)

let clock_gettime_ns api =
  match
    lift_out (api.sys Sysno.Clock_gettime [| Args.Int 1; Args.Buf_out 16 |])
  with
  | Ok b -> decode_time_ns b
  | Error _ -> 0L

let futex_wait api uaddr =
  ignore
    (api.sys Sysno.Futex
       [| Args.Int uaddr; Args.Int Flags.futex_wait; Args.Int 0 |])

let futex_wake api uaddr n =
  ret_or_zero api Sysno.Futex
    [| Args.Int uaddr; Args.Int Flags.futex_wake; Args.Int n |]

let futex_lock api uaddr =
  ret_or_zero api Sysno.Futex
    [| Args.Int uaddr; Args.Int Flags.futex_lock; Args.Int 0 |]

let futex_unlock api uaddr =
  ret_or_zero api Sysno.Futex
    [| Args.Int uaddr; Args.Int Flags.futex_unlock; Args.Int 0 |]

let getrandom api n =
  lift_out (api.sys Sysno.Getrandom [| Args.Buf_out n; Args.Int 0 |])

let kill api pid signo =
  lift_unit (api.sys Sysno.Kill [| Args.Int pid; Args.Int signo |])

let set_signal_handler api signo f =
  ignore
    (api.sys Sysno.Rt_sigaction [| Args.Int signo; Args.Int 1; Args.Int 0 |]);
  Kernel.set_signal_handler api.proc signo f

let exit_group api code =
  ignore (api.sys Sysno.Exit_group [| Args.Int code |]);
  (* Exit_group raises Killed inside the kernel; not reached. *)
  assert false

let compute api cycles =
  if api.compute_scale_c1000 = 1000 then E.consume cycles
  else E.consume (((cycles * api.compute_scale_c1000) + 500) / 1000)
