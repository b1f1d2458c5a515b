(* The traced run: the four public stage modules composed exactly as
   [Flow.run] composes them, each call wrapped in a benchmark-side span.
   Spans stay in memory and are written out when the run ends. *)

module Flow = Tqec_core.Flow
module Trace = Tqec_obs.Trace
module Json = Tqec_obs.Json
module Stage = Tqec_artifact.Stage
module Store = Tqec_artifact.Store
module Router = Tqec_route.Router
module Stopwatch = Tqec_prelude.Stopwatch

type span = {
  id : int;
  op : int;
  layer : string;
  parent : int;  (** [-1] for a root *)
  start_s : float;  (** seconds since the recorder was created *)
  stop_s : float;
  alloc_bytes : float;  (** [Gc.allocated_bytes] delta, children included *)
  counters : (string * int) list;
}

type recorder = { mutable spans : span list; mutable next_id : int; origin : float }

let recorder () = { spans = []; next_id = 0; origin = Stopwatch.now_s () }

(* [f] receives the new span's id (the parent of any span it opens) and
   returns its result with the counters to attach. *)
let span r ~op ?(parent = -1) layer f =
  let id = r.next_id in
  r.next_id <- id + 1;
  let a0 = Gc.allocated_bytes () in
  let t0 = Stopwatch.now_s () in
  let result, counters = f id in
  let t1 = Stopwatch.now_s () in
  let alloc_bytes = Gc.allocated_bytes () -. a0 in
  r.spans <-
    { id; op; layer; parent; start_s = t0 -. r.origin; stop_s = t1 -. r.origin; alloc_bytes;
      counters }
    :: r.spans;
  result

let spans r = List.rev r.spans

let to_json r =
  let one s =
    Json.Obj
      [ ("id", Json.Int s.id);
        ("op", Json.Int s.op);
        ("layer", Json.String s.layer);
        ("parent", Json.Int s.parent);
        ("start_s", Json.Float s.start_s);
        ("stop_s", Json.Float s.stop_s);
        ("alloc_bytes", Json.Float s.alloc_bytes);
        ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters)) ]
  in
  Json.List (List.map one (spans r))

(* Run a stage on a live span and keep the counters it records there. *)
let run_live (type i o) (module St : Stage.S with type input = i and type output = o) input =
  let live = Trace.root St.name in
  let out = St.run ~trace:live input in
  Trace.close live;
  (out, Trace.counters live)

type outcome = {
  routing : Router.result;
  hits : int;
  misses : int;
}

(* [store] mirrors [Flow.run ~cache]: key, look up, decode on a hit; on a
   miss compute and store. A decode failure raises instead of evicting —
   every traced store lookup is expected to hit. *)
let compose r ~op ~pool ?store (options : Flow.options) circuit =
  let hits = ref 0 and misses = ref 0 in
  let stage (type i o) ~parent ?(extra = [])
      ((module St : Stage.S with type input = i and type output = o) as st) (input : i) : o =
    span r ~op ~parent St.name (fun id ->
        match store with
        | None ->
            let out, counters = run_live st input in
            (out, extra @ counters)
        | Some store -> (
            let key =
              span r ~op ~parent:id "artifact.key" (fun _ -> (Stage.cache_key st input, []))
            in
            let found =
              span r ~op ~parent:id "artifact.read" (fun _ ->
                  match Store.find store ~stage:St.name ~key with
                  | None -> (None, [])
                  | Some json ->
                      let path =
                        Filename.concat
                          (Filename.concat (Option.get (Store.dir store)) St.name)
                          (key ^ ".json")
                      in
                      (Some json, [ ("bytes", (Unix.stat path).Unix.st_size) ]))
            in
            match found with
            | Some json ->
                incr hits;
                let out =
                  span r ~op ~parent:id "artifact.decode" (fun _ -> (St.decode input json, []))
                in
                (out, extra @ [ ("cache_hit", 1) ])
            | None ->
                incr misses;
                let out, counters = run_live st input in
                Store.store store ~stage:St.name ~key (St.encode out);
                (out, extra @ (("cache_miss", 1) :: counters))))
  in
  span r ~op "flow" (fun parent ->
      let pre = stage ~parent (module Flow.Preprocess) circuit in
      let modular = pre.Flow.Preprocess.modular in
      let br =
        stage ~parent (module Flow.Bridging)
          { Flow.Bridging.bridging = options.Flow.bridging; modular }
      in
      let nets = br.Flow.Bridging.nets in
      let pl =
        stage ~parent (module Flow.Placement)
          { Flow.Placement.primal_groups = options.Flow.primal_groups;
            max_group_size = options.Flow.max_group_size;
            config = options.Flow.place;
            modular;
            nets;
            pool = Some pool }
      in
      let config =
        { options.Flow.route with
          Router.friend_aware = options.Flow.friend_aware && options.Flow.bridging }
      in
      let routing =
        stage ~parent ~extra:[ ("nets", List.length nets) ] (module Flow.Routing)
          { Flow.Routing.config; placement = pl.Flow.Placement.placement; nets; pool = Some pool }
      in
      ({ routing; hits = !hits; misses = !misses }, []))
