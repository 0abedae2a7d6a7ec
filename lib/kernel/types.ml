(* The simulated kernel's object graph. Everything lives in one recursive
   knot because file descriptions, epoll instances and waitable objects
   reference each other, just as in a real kernel. *)

module Cond = Varan_sim.Engine.Cond

type node =
  | Regular of regular
  | Directory of (string, node) Hashtbl.t
  | Dev_null
  | Dev_zero
  | Dev_urandom

and regular = { mutable content : Bytes.t }

type epoll = {
  e_id : int;
  e_watches : (int, watch) Hashtbl.t; (* keyed by fd number *)
  e_cond : Cond.cond;
  (* The ready list: [e_ready.(0 .. e_nready - 1)] holds the queued
     watches, sorted by fd, each once. Every watch that is ready is
     queued; a queued watch may have stopped being ready since, and
     [epoll_wait] drops it then. Slots past [e_nready] are stale: each
     still holds a watch until the list grows over it again. *)
  mutable e_ready : watch array;
  mutable e_nready : int;
  mutable e_watchers : watch list; (* watches of this epoll in others *)
}

and watch = {
  w_fd : int;
  w_ofile : ofile;
  mutable w_events : int;
  w_ep : epoll; (* the epoll this watch belongs to *)
  mutable w_queued : bool; (* on [w_ep]'s ready list *)
}

and pipe = {
  p_q : Bytequeue.t;
  mutable p_readers : int;
  mutable p_writers : int;
  p_readable : Cond.cond;
  p_writable : Cond.cond;
  mutable p_watchers : watch list; (* both ends' epoll watches *)
}

and endpoint = {
  ep_id : int;
  ep_rx : Bytequeue.t;
  mutable ep_peer : endpoint option;
  mutable ep_port : int; (* bound local port, 0 if unbound *)
  mutable ep_peer_closed : bool; (* no more data will arrive *)
  mutable ep_closed : bool;
  ep_readable : Cond.cond;
  ep_writable : Cond.cond;
  mutable ep_watchers : watch list;
}

and listener = {
  l_id : int;
  l_port : int;
  l_backlog : endpoint Queue.t;
  mutable l_closed : bool;
  l_cond : Cond.cond;
  mutable l_watchers : watch list;
}

and ofile_kind =
  | K_file of node
  | K_pipe_r of pipe
  | K_pipe_w of pipe
  | K_sock of endpoint
  | K_listen of listener
  | K_epoll of epoll

and ofile = {
  of_id : int;
  mutable kind : ofile_kind;
  mutable offset : int;
  mutable flags : int; (* O_* status flags, notably O_NONBLOCK *)
  mutable refcount : int;
}

type fd_entry = { mutable fde_ofile : ofile; mutable fde_cloexec : bool }

type sig_disposition = Sig_default | Sig_ignore | Sig_handler of (int -> unit)

type proc = {
  pid : int;
  pname : string;
  fds : (int, fd_entry) Hashtbl.t;
  mutable cwd : string;
  mutable brk_addr : int;
  mutable mmap_next : int;
  sighandlers : (int, sig_disposition) Hashtbl.t;
  mutable exited : bool;
  mutable exit_code : int;
  mutable umask : int;
  mutable parent : proc option;
  mutable children : proc list;
  exit_cond : Cond.cond; (* signalled when a child exits *)
  mutable tasks : Varan_sim.Engine.task_id list;
  mutable pending_signals : int list; (* delivered at syscall boundaries *)
  uid : int;
  gid : int;
}

type futex_slot = {
  f_cond : Cond.cond;
  mutable f_waiters : int;
  (* futex_lock/futex_unlock (PI-style mutex ops): whether the word is
     held, and a monotonically increasing acquisition counter — the
     lock-acquisition order the NVX leader streams for followers to
     replay. *)
  mutable f_locked : bool;
  mutable f_acq : int;
}

type t = {
  eng : Varan_sim.Engine.t;
  cost : Varan_cycles.Cost.t;
  root : node; (* always a Directory *)
  listeners : (int, listener) Hashtbl.t; (* port -> listener *)
  futexes : (int, futex_slot) Hashtbl.t; (* uaddr -> slot *)
  procs : (int, proc) Hashtbl.t;
  mutable next_pid : int;
  mutable next_ofile : int;
  mutable next_ephemeral_port : int;
  rng : Varan_util.Prng.t;
  link_latency : int; (* cycles for one network direction *)
  epoch_seconds : int; (* wall-clock base for time(2) *)
}
