(** A beanstalkd-style work queue: [put <payload>], [reserve],
    [delete <id>]. Single-threaded, very little computation per command
    and a binlog append on every mutation — the most system-call-dense of
    the benchmark servers, which is why it shows the largest NVX
    overhead in the paper's Figure 5. *)

open Varan_kernel

type config = {
  port : int;
  binlog_path : string option;
  work_cycles : int;
  expected_conns : int;
}

val make_body : config -> unit -> unit_idx:int -> Api.t -> unit

val put_cmd : Bytes.t -> Bytes.t
