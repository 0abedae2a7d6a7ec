module E = Varan_sim.Engine
module Types = Varan_kernel.Types
module Stats = Varan_util.Stats
module Flight = Varan_obs.Flight

(* Sharded serving layer: N independent monitor sessions — each with its
   own ring(s), lifecycle watchdog and tape — behind a sticky-hash
   connection router, all sharing one spawn hub (zygote + rewrite cache)
   so variant spawn cost is paid once for the whole pool.

   Everything per-shard is genuinely per-shard: a quarantined follower,
   a degraded session or a blown restart budget on shard 3 never gates a
   sibling — the only coupling is the health feed into the router, which
   drains a degraded shard's connections to survivors. *)

type shard = {
  sh_id : int;
  sh_scope : string;
  sh_session : Session.t;
}

type t = {
  shards : shard array;
  hub : Session.shared_spawn;
  router : Router.t;
  eng : E.t;
  g_degraded : Stats.counter;
  mutable degraded_seen : bool array; (* health edge already reported *)
}

let scope_of_shard i = Printf.sprintf "shard%d" i

(* A shard is routable while its session still runs N-version execution
   (not degraded to native leader-only). A degraded session keeps
   serving its native leader, but the router prefers full-monitor
   siblings — that is the rebalancing the lifecycle isolation buys. *)
let shard_healthy sh = Session.degraded sh.sh_session = None

(* Degraded sessions are marked down in the router and their connections
   drained to survivors; the ticker calls this periodically. *)
let refresh_health t =
  Array.iter
    (fun sh ->
      let up = shard_healthy sh in
      if (not up) && not t.degraded_seen.(sh.sh_id) then begin
        t.degraded_seen.(sh.sh_id) <- true;
        Stats.incr_counter t.g_degraded;
        (* Pool-level view of the same edge: the shard's black box gets
           the moment the router stopped sending it fresh connections. *)
        Flight.record
          (Session.flight sh.sh_session)
          ~at:(E.now t.eng) "shard.drained"
          (Printf.sprintf "shard %d marked down, connections draining"
             sh.sh_id)
      end;
      if Router.healthy t.router sh.sh_id <> up then begin
        Router.set_healthy t.router sh.sh_id up;
        if not up then ignore (Router.rebalance t.router)
      end)
    t.shards

let launch ?config ?config_of ?(router_seed = 0) ?(health_period = 20_000)
    ?scope_of k ~shards ~variants_of =
  if shards < 1 then invalid_arg "Shard.launch: shards";
  let scope_of = Option.value scope_of ~default:scope_of_shard in
  let hub = Session.shared_spawn () in
  let config_for i =
    match config_of with
    | Some f -> f i
    | None -> Option.value config ~default:Config.default
  in
  let pool =
    Array.init shards (fun i ->
        let scope = scope_of i in
        let session =
          Session.launch ~config:(config_for i) ~scope ~shared:hub k
            (variants_of i)
        in
        { sh_id = i; sh_scope = scope; sh_session = session })
  in
  let t =
    {
      shards = pool;
      hub;
      router = Router.create ~seed:router_seed ~shards ();
      eng = k.Types.eng;
      g_degraded = Stats.counter "shard.degraded";
      degraded_seen = Array.make shards false;
    }
  in
  (* Health rides the engine tick, like the per-session watchdogs: sync
     session degradation into the router and drain eagerly on the edge. *)
  E.add_ticker k.Types.eng ~period:health_period (fun () ->
      refresh_health t;
      true);
  t

let count t = Array.length t.shards
let session t i = t.shards.(i).sh_session
let scope t i = t.shards.(i).sh_scope
let router t = t.router
let hub t = t.hub
let healthy t i = shard_healthy t.shards.(i)

let route t ~conn = Router.route t.router ~conn

let degraded t =
  Array.to_list t.shards
  |> List.filter_map (fun sh ->
         match Session.degraded sh.sh_session with
         | None -> None
         | Some reason -> Some (sh.sh_id, reason))

let zygote_forks t =
  match Session.shared_zygote t.hub with
  | None -> 0
  | Some z -> Zygote.forks_served z
