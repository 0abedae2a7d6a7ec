(** The paper's benchmark applications as ready-made workloads.

    The five C10k servers of Table 1 / Figure 5 (Beanstalkd, Lighttpd,
    Memcached, Nginx, Redis) and the prior-work comparison servers of
    Table 2 / Figure 6 (Apache httpd, thttpd, plus Lighttpd under its two
    load generators). Request counts are scaled down from the paper's
    runs to keep simulations quick; per-request work and syscall mixes
    are calibrated so the measured overheads track the paper's. *)

val beanstalkd : Workload.t
(** beanstalkd-benchmark: workers pushing 256-byte jobs. *)

val lighttpd_wrk : Workload.t
(** wrk fetching a 4 kB page over keep-alive connections. *)

val memcached : Workload.t
(** memslap: 1 KiB values, 1:9 set/get mix, 4 worker threads. *)

val nginx : Workload.t
(** wrk against 4 worker processes. *)

val redis : Workload.t
(** redis-benchmark command mix (PING/SET/GET/INCR). *)

val apache_httpd : Workload.t
(** ApacheBench against prefork workers (Orchestra's benchmark). *)

val thttpd : Workload.t
(** ApacheBench against the single-process server (Tachyon's). *)

val lighttpd_http_load : Workload.t
(** http_load variant of the lighttpd benchmark (Mx's). *)

val lighttpd_ab : Workload.t
(** ApacheBench variant of the lighttpd benchmark (Tachyon's). *)

val thread_grid :
  name:string -> threads:int -> locks:int -> rounds:int -> code_seed:int ->
  Workload.t
(** A server-less thread-scale stressor: [threads] sibling threads
    contend on [locks] futex words for [rounds] lock/unlock rounds each.
    The streamed acquisition indices encode the leader's global lock
    order; everything else replays concurrently through the per-tid
    lanes. *)

val thread_grid_64 : Workload.t
(** 64 threads over 8 contended locks. *)

val thread_grids : Workload.t list

val c10k_servers : Workload.t list
(** The Figure 5 set, in the paper's order. *)

val prior_work_servers : Workload.t list
(** The Figure 6 set. *)

val table1 : (string * int * string) list
(** Table 1: application, size (lines of code, as reported by cloc in
    the paper), threading model. *)
