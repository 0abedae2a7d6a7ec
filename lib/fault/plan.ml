module Prng = Varan_util.Prng

type injection =
  | Crash_variant of { idx : int; at_seq : int }
  | Stall_follower of { idx : int; at_seq : int; delay : int }
  | Ring_pressure of { shrink_to : int }
  | Signal_burst of { at_seq : int; signo : int; count : int }
  | Fork_at of { at_op : int }
  | Drop_payload_grant of { idx : int; at_seq : int }
  (* Link faults fire on the cross-node bridge's link-global frame
     sequence (data and acks share one counter), not on stream seqs. *)
  | Link_partition of { from_seq : int; duration : int }
  | Link_delay of { at_seq : int; extra : int }
  | Link_reorder of { at_seq : int }
  | Link_drop of { at_seq : int }
  | Link_dup of { at_seq : int }

type t = injection list

exception Injected of string

let empty = []

(* SIGINT is the burst signal: the torture programs install a handler for
   it, so it queues instead of killing (do_kill's default disposition). *)
let burst_signo = 2

let random rng ~variants ~max_seq ~max_op =
  if variants < 1 then invalid_arg "Plan.random: variants must be >= 1";
  let seq () = Prng.int rng (max 1 max_seq) in
  let acc = ref [] in
  let add i = acc := i :: !acc in
  if Prng.int rng 3 = 0 then
    add (Ring_pressure { shrink_to = 1 + Prng.int rng 4 });
  (* Crash at most [variants - 1] distinct variants so a survivor always
     remains to compare against the native run. *)
  let order = Array.init variants Fun.id in
  Prng.shuffle rng order;
  let ncrashes = Prng.int rng variants in
  for c = 0 to ncrashes - 1 do
    add (Crash_variant { idx = order.(c); at_seq = seq () })
  done;
  let nstalls = Prng.int rng 2 in
  for _ = 1 to nstalls do
    if variants > 1 then
      add
        (Stall_follower
           {
             idx = 1 + Prng.int rng (variants - 1);
             at_seq = seq ();
             delay = 500 + Prng.int rng 40_000;
           })
  done;
  if Prng.int rng 3 = 0 then
    add
      (Signal_burst
         { at_seq = seq (); signo = burst_signo; count = 1 + Prng.int rng 3 });
  if Prng.int rng 4 = 0 then add (Fork_at { at_op = Prng.int rng (max 1 max_op) });
  List.rev !acc

let random_link rng ~max_frame =
  let seq () = Prng.int rng (max 1 max_frame) in
  let acc = ref [] in
  let add i = acc := i :: !acc in
  (* Durations span both regimes: short cuts the retransmit timers ride
     out, long ones that must trip the watchdog into [Unreachable]. *)
  let nparts = 1 + Prng.int rng 2 in
  for _ = 1 to nparts do
    add
      (Link_partition
         { from_seq = seq (); duration = 60_000 + Prng.int rng 940_000 })
  done;
  if Prng.int rng 2 = 0 then
    add (Link_delay { at_seq = seq (); extra = 5_000 + Prng.int rng 50_000 });
  for _ = 1 to Prng.int rng 3 do
    add (Link_drop { at_seq = seq () })
  done;
  if Prng.int rng 2 = 0 then add (Link_reorder { at_seq = seq () });
  if Prng.int rng 3 = 0 then add (Link_dup { at_seq = seq () });
  List.rev !acc

let has_link_faults t =
  List.exists
    (function
      | Link_partition _ | Link_delay _ | Link_reorder _ | Link_drop _
      | Link_dup _ ->
        true
      | _ -> false)
    t

let ring_shrink t =
  List.fold_left
    (fun acc i ->
      match i with
      | Ring_pressure { shrink_to } -> (
        match acc with
        | None -> Some shrink_to
        | Some n -> Some (min n shrink_to))
      | _ -> acc)
    None t

let fork_ops t =
  List.filter_map (function Fork_at { at_op } -> Some at_op | _ -> None) t

let describe = function
  | Crash_variant { idx; at_seq } ->
    Printf.sprintf "crash variant %d at stream seq %d" idx at_seq
  | Stall_follower { idx; at_seq; delay } ->
    Printf.sprintf "stall follower %d for %d cycles at stream seq %d" idx
      delay at_seq
  | Ring_pressure { shrink_to } ->
    Printf.sprintf "shrink the ring to %d slot(s)" shrink_to
  | Signal_burst { at_seq; signo; count } ->
    Printf.sprintf "post %d signal(s) %d to the leader at stream seq %d"
      count signo at_seq
  | Fork_at { at_op } -> Printf.sprintf "splice a fork at op %d" at_op
  | Drop_payload_grant { idx; at_seq } ->
    Printf.sprintf "follower %d leaks the payload of stream seq %d" idx
      at_seq
  | Link_partition { from_seq; duration } ->
    Printf.sprintf "partition the link for %d cycles at frame %d" duration
      from_seq
  | Link_delay { at_seq; extra } ->
    Printf.sprintf "delay link frame %d by %d cycles" at_seq extra
  | Link_reorder { at_seq } ->
    Printf.sprintf "reorder link frame %d behind its successor" at_seq
  | Link_drop { at_seq } -> Printf.sprintf "drop link frame %d" at_seq
  | Link_dup { at_seq } -> Printf.sprintf "duplicate link frame %d" at_seq

let injection_to_string = function
  | Crash_variant { idx; at_seq } -> Printf.sprintf "crash:%d@%d" idx at_seq
  | Stall_follower { idx; at_seq; delay } ->
    Printf.sprintf "stall:%d@%d+%d" idx at_seq delay
  | Ring_pressure { shrink_to } -> Printf.sprintf "ring:%d" shrink_to
  | Signal_burst { at_seq; signo; count } ->
    Printf.sprintf "burst:%dx%d@%d" signo count at_seq
  | Fork_at { at_op } -> Printf.sprintf "fork@%d" at_op
  | Drop_payload_grant { idx; at_seq } ->
    Printf.sprintf "drop:%d@%d" idx at_seq
  | Link_partition { from_seq; duration } ->
    Printf.sprintf "part@%d+%d" from_seq duration
  | Link_delay { at_seq; extra } -> Printf.sprintf "delay@%d+%d" at_seq extra
  | Link_reorder { at_seq } -> Printf.sprintf "reorder@%d" at_seq
  | Link_drop { at_seq } -> Printf.sprintf "ldrop@%d" at_seq
  | Link_dup { at_seq } -> Printf.sprintf "dup@%d" at_seq

let to_string t = String.concat "," (List.map injection_to_string t)

let injection_of_string s =
  let try_scan fmt build = try Some (Scanf.sscanf s fmt build) with _ -> None in
  let first_some l = List.find_map (fun f -> f ()) l in
  first_some
    [
      (fun () ->
        try_scan "crash:%d@%d%!" (fun idx at_seq ->
            Crash_variant { idx; at_seq }));
      (fun () ->
        try_scan "stall:%d@%d+%d%!" (fun idx at_seq delay ->
            Stall_follower { idx; at_seq; delay }));
      (fun () ->
        try_scan "ring:%d%!" (fun shrink_to -> Ring_pressure { shrink_to }));
      (fun () ->
        try_scan "burst:%dx%d@%d%!" (fun signo count at_seq ->
            Signal_burst { at_seq; signo; count }));
      (fun () -> try_scan "fork@%d%!" (fun at_op -> Fork_at { at_op }));
      (fun () ->
        try_scan "drop:%d@%d%!" (fun idx at_seq ->
            Drop_payload_grant { idx; at_seq }));
      (fun () ->
        try_scan "part@%d+%d%!" (fun from_seq duration ->
            Link_partition { from_seq; duration }));
      (fun () ->
        try_scan "delay@%d+%d%!" (fun at_seq extra ->
            Link_delay { at_seq; extra }));
      (fun () -> try_scan "reorder@%d%!" (fun at_seq -> Link_reorder { at_seq }));
      (fun () -> try_scan "ldrop@%d%!" (fun at_seq -> Link_drop { at_seq }));
      (fun () -> try_scan "dup@%d%!" (fun at_seq -> Link_dup { at_seq }));
    ]

let of_string s =
  let s = String.trim s in
  if s = "" then Ok []
  else
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
        match injection_of_string (String.trim p) with
        | Some i -> go (i :: acc) rest
        | None -> Error (Printf.sprintf "bad injection spec %S" p))
    in
    go [] parts

(* ------------------------------------------------------------------ *)
(* Armed plans                                                         *)
(* ------------------------------------------------------------------ *)

type action =
  | Crash
  | Stall of int
  | Signals of { signo : int; count : int }
  | Drop_payload

type link_action =
  | L_partition of int
  | L_delay of int
  | L_reorder
  | L_drop
  | L_duplicate

type slot = { inj : injection; mutable fired : bool }
type armed = slot list

let arm t = List.map (fun inj -> { inj; fired = false }) t

(* Injections fire at the first hook where the variant's stream position
   has reached their sequence number ([>=], not [=]): a position can be
   skipped, e.g. by a fork event consumed outside the replay loop. *)

let at_leader_publish armed ~idx ~seq =
  List.filter_map
    (fun s ->
      if s.fired then None
      else
        match s.inj with
        | Crash_variant c when c.idx = idx && seq >= c.at_seq ->
          s.fired <- true;
          Some Crash
        | Signal_burst b when seq >= b.at_seq ->
          s.fired <- true;
          Some (Signals { signo = b.signo; count = b.count })
        | _ -> None)
    armed

let at_follower_consume armed ~idx ~seq =
  let take pick =
    List.filter_map
      (fun s ->
        if s.fired then None
        else
          match pick s.inj with
          | Some a ->
            s.fired <- true;
            Some a
          | None -> None)
      armed
  in
  (* Stalls first (the follower lags, then acts), payload drops next,
     crashes last so a co-located stall still delays the crash. *)
  let stalls =
    take (function
      | Stall_follower st when st.idx = idx && seq >= st.at_seq ->
        Some (Stall st.delay)
      | _ -> None)
  in
  let drops =
    take (function
      | Drop_payload_grant d when d.idx = idx && seq >= d.at_seq ->
        Some Drop_payload
      | _ -> None)
  in
  let crashes =
    take (function
      | Crash_variant c when c.idx = idx && seq >= c.at_seq -> Some Crash
      | _ -> None)
  in
  stalls @ drops @ crashes

let at_link_send armed ~seq =
  List.filter_map
    (fun s ->
      if s.fired then None
      else
        match s.inj with
        | Link_partition p when seq >= p.from_seq ->
          s.fired <- true;
          Some (L_partition p.duration)
        | Link_delay d when seq >= d.at_seq ->
          s.fired <- true;
          Some (L_delay d.extra)
        | Link_reorder r when seq >= r.at_seq ->
          s.fired <- true;
          Some L_reorder
        | Link_drop d when seq >= d.at_seq ->
          s.fired <- true;
          Some L_drop
        | Link_dup d when seq >= d.at_seq ->
          s.fired <- true;
          Some L_duplicate
        | _ -> None)
    armed
