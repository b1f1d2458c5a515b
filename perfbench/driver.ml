(* One benchmark run: set up, then a closed loop with one client (each op
   is issued when the previous one returns) on a 1-domain pool, in whole
   passes over the corpus until the time is up. Whole passes keep every
   run's op mix equal, so quantiles do not depend on where the last pass
   was cut. Every op's layout is checked outside the timed region. *)

module Flow = Tqec_core.Flow
module Pool = Tqec_prelude.Pool
module Stopwatch = Tqec_prelude.Stopwatch
module Store = Tqec_artifact.Store
module Verify = Tqec_verify.Verify
module Router = Tqec_route.Router
module Json = Tqec_obs.Json

type stop = Seconds of float | Ops of int

type config = {
  workload : Corpus.workload;
  seed : int;
  stop : stop;
  trace : bool;
  setups : int;  (** set-up repeats; [setup_s] is their median *)
  work_dir : string;  (** scratch space: the on-disk store and the span file *)
}

type metric = { name : string; value : float; unit : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  problems : string list;  (** why [correct] is false *)
  rejected : string list;  (** one line per failed op: circuit identity and reason *)
  notes : string list;  (** the tail percentile, and the raw wall-clock figures *)
  end_to_end : metric list;
  per_layer : metric list;
  recorder : Layers.recorder;
}

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks, [p] in percent. *)
let quantile sorted p =
  let n = Array.length sorted in
  let h = float_of_int (n - 1) *. p /. 100.0 in
  let lo = int_of_float h in
  let hi = min (lo + 1) (n - 1) in
  sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted_of xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = quantile (sorted_of xs) 50.0

(* The highest percentile of a fixed ladder with at least ten samples above
   it. A ladder rather than rank n-10 keeps the percentile the same across
   runs whose op counts differ by a few. *)
let tail xs =
  let s = sorted_of xs in
  let beyond v = Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 s in
  let p =
    List.fold_left
      (fun best p -> if beyond (quantile s p) >= 10 then p else best)
      50.0 [ 50.0; 75.0; 90.0; 95.0; 99.0; 99.9 ]
  in
  let v = quantile s p in
  (v, Printf.sprintf "p%g over %d samples, %d beyond it" p (Array.length s) (beyond v))

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* What a fresh [tqec_compress] process does: open the store (when there is
   one) and run the flow. Timed, with the allocation it causes. *)
let untraced ~pool ~store_dir (it : Corpus.item) =
  let a0 = Gc.allocated_bytes () in
  let t0 = Stopwatch.now_s () in
  let flow =
    match
      let cache = Option.map (fun dir -> Store.create ~dir ()) store_dir in
      Flow.run ~options:it.Corpus.options ~pool ?cache it.Corpus.circuit
    with
    | f -> Ok f
    | exception e -> Error (Printexc.to_string e)
  in
  let seconds = Stopwatch.now_s () -. t0 in
  (flow, seconds, Gc.allocated_bytes () -. a0)

let traced rec_ ~op ~pool ~store_dir (it : Corpus.item) =
  let t0 = Stopwatch.now_s () in
  let outcome =
    match
      let store = Option.map (fun dir -> Store.create ~dir ()) store_dir in
      Layers.compose rec_ ~op ~pool ?store it.Corpus.options it.Corpus.circuit
    with
    | o -> Ok o
    | exception e -> Error (Printexc.to_string e)
  in
  (outcome, Stopwatch.now_s () -. t0)

(* [Flow.validate] is the program's own verdict (the CLI exits 2 on it);
   the oracle re-checks from raw geometry. *)
let validate rec_ ~op (f : Flow.t) =
  let own = Layers.span rec_ ~op "verify.validate" (fun _ -> (Flow.validate f, [])) in
  let report =
    Layers.span rec_ ~op "verify.oracle" (fun _ ->
        ( Verify.verify
            { Verify.modular = f.Flow.modular;
              placement = f.Flow.placement;
              routing = f.Flow.routing;
              nets = f.Flow.nets;
              bridge = f.Flow.bridge },
          [] ))
  in
  (own, Verify.first_error report)

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let mb bytes = bytes /. 1e6

(* Host speed. On a shared host the same op's latency swings by up to 2x
   over tens of seconds, with a co-tenant on the same core. A fixed,
   non-allocating kernel (an in-place sort and a walk over an 8 MB array)
   is timed just before and just after every op and set-up. End-to-end
   times are scaled by [reference_nominal_s] over the kernel's mean time
   around them: they are seconds at the host speed where the kernel takes
   10 ms. On a shared 2-core host, op/kernel ratios held within 4% over
   15-second windows in which raw op latency moved 30%. *)
let reference_nominal_s = 0.010

let ref_src = Array.init 32768 (fun i -> (i * 7919) land 65535)

let ref_scratch = Array.make 32768 0

(* Off the OCaml heap, so it does not count toward [peak_heap_mb]. *)
let ref_ring =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 1_048_576 in
  for i = 0 to 1_048_575 do
    a.{i} <- (i * 2654435761) land 1_048_575
  done;
  a

let reference_s () =
  let t0 = Stopwatch.now_s () in
  Array.blit ref_src 0 ref_scratch 0 (Array.length ref_src);
  Array.sort compare ref_scratch;
  let j = ref 0 and sum = ref 0 in
  for _ = 1 to 100_000 do
    j := ref_ring.{!j};
    sum := !sum + !j
  done;
  ignore (Sys.opaque_identity !sum);
  Stopwatch.now_s () -. t0

(* [seconds] rescaled to nominal host speed, given kernel times taken just
   before and just after it. *)
let at_nominal seconds ~before ~after = seconds *. reference_nominal_s *. 2.0 /. (before +. after)

let run cfg =
  Pool.set_default_domains 1;
  let pool = Pool.global () in
  let w = cfg.workload in
  let store_dir =
    match w with
    | Corpus.Warm_rerun ->
        Some
          (Filename.concat cfg.work_dir
             (Printf.sprintf "store-%s-%d" (Corpus.workload_name w) (Unix.getpid ())))
    | Corpus.Table1_cli | Corpus.Random_effort -> None
  in
  mkdir_p cfg.work_dir;
  (* Set-up: build the inputs, fill the store cold (warm_rerun; each
     circuit as its own CLI run into a fresh directory), one warm-up op. *)
  let setup () =
    let items = Array.of_list (Corpus.items w) in
    let cold =
      match store_dir with
      | None -> [||]
      | Some dir ->
          rm_rf dir;
          Array.map
            (fun (it : Corpus.item) ->
              (Flow.run ~options:it.Corpus.options ~pool ~cache:(Store.create ~dir ())
                 it.Corpus.circuit)
                .Flow.volume)
            items
    in
    ignore (untraced ~pool ~store_dir items.(0));
    (items, cold)
  in
  let timed_setups =
    List.init (max 1 cfg.setups) (fun _ ->
        let before = reference_s () in
        let x, seconds = Stopwatch.time setup in
        (x, at_nominal seconds ~before ~after:(reference_s ())))
  in
  let items, cold = fst (List.nth timed_setups (List.length timed_setups - 1)) in
  let setup_s = median (List.map snd timed_setups) in
  let n = Array.length items in
  let rec_ = Layers.recorder () in
  let problems = ref [] and rejected = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let volumes = Array.make n None in
  let latencies = ref [] and raw_latencies = ref [] and allocs = ref [] and overheads = ref [] in
  let failed = ref 0 in
  let order = ref [||] in
  let k = ref 0 in
  (* Run time is counted at nominal host speed too, so the op count, and
     with it the tail percentile, does not depend on the host's phase. A
     run on a very slow host still stops, mid-pass, at twice the time. *)
  let elapsed = ref 0.0 and wall = Stopwatch.start () in
  let continue_ () =
    match cfg.stop with
    | Ops m -> !k < m
    | Seconds s -> (!k mod n <> 0 || !elapsed < s) && Stopwatch.elapsed_s wall < 2.0 *. s
  in
  while continue_ () do
    let op = !k in
    let iteration = Stopwatch.start () in
    if op mod n = 0 then order := Corpus.pass_order ~seed:cfg.seed ~pass:(op / n) ~n;
    let i = !order.(op mod n) in
    let it = items.(i) in
    (* Collect the previous op's and the checks' garbage outside the timed
       region: each op starts from a clean heap, as a fresh process would,
       and the heap peak no longer depends on the op order. *)
    Gc.full_major ();
    let before = reference_s () in
    let flow, seconds, alloc = untraced ~pool ~store_dir it in
    let after = reference_s () in
    latencies := at_nominal seconds ~before ~after :: !latencies;
    raw_latencies := seconds :: !raw_latencies;
    allocs := alloc :: !allocs;
    let traced = if cfg.trace then Some (traced rec_ ~op ~pool ~store_dir it) else None in
    let why_failed = ref None in
    let reject why = if !why_failed = None then why_failed := Some why in
    (match flow with
     | Error e -> reject ("raised " ^ e)
     | Ok f ->
         if volumes.(i) = None then volumes.(i) <- Some f.Flow.volume;
         let own, oracle = validate rec_ ~op f in
         (match (own, oracle) with
          | Ok (), None -> ()
          | Error e, Some _ -> reject e
          | Ok (), Some o ->
              problem "op %d: oracle rejects a layout Flow.validate accepts: %s" op o;
              reject o
          | Error e, None ->
              problem "op %d: Flow.validate rejects a layout the oracle accepts: %s" op e;
              reject e);
         (match store_dir with
          | None -> ()
          | Some _ ->
              let hits, misses, _ = Flow.cache_stats f in
              if hits <> 4 || misses <> 0 || f.Flow.volume <> cold.(i) then begin
                problem "op %d: warm rerun got %d hits, %d misses, volume %d (cold %d)" op hits
                  misses f.Flow.volume cold.(i);
                reject "warm rerun diverged from the cold fill"
              end);
         match traced with
         | None -> ()
         | Some (Error e, _) -> problem "op %d: traced composition raised %s" op e
         | Some (Ok o, traced_s) ->
             overheads := (traced_s -. seconds) :: !overheads;
             let r = o.Layers.routing in
             if r.Router.volume <> f.Flow.volume
                || r.Router.dims <> f.Flow.routing.Router.dims
                || List.length r.Router.failed <> List.length f.Flow.routing.Router.failed
             then
               problem "op %d: traced result (volume %d) differs from Flow.run's (volume %d)" op
                 r.Router.volume f.Flow.volume;
             if store_dir <> None && (o.Layers.hits <> 4 || o.Layers.misses <> 0) then
               problem "op %d: traced warm rerun got %d hits, %d misses" op o.Layers.hits
                 o.Layers.misses);
    Option.iter
      (fun why ->
        incr failed;
        rejected :=
          Printf.sprintf "op %d: %s: %s" op (Corpus.describe it.Corpus.identity) why :: !rejected)
      !why_failed;
    elapsed := !elapsed +. at_nominal (Stopwatch.elapsed_s iteration) ~before ~after;
    incr k
  done;
  (match store_dir with Some dir -> rm_rf dir | None -> ());
  let attempted = !k in
  let count = float_of_int attempted in
  let total xs = List.fold_left ( +. ) 0.0 xs in
  let latency_tail, tail_note = tail !latencies in
  let notes =
    [ "latency_tail_s is the " ^ tail_note;
      Printf.sprintf "raw wall-clock: latency p50 %.4g s, throughput %.4g ops/s"
        (median !raw_latencies) (count /. total !raw_latencies);
      Printf.sprintf "measured %d ops in %.1f s at nominal host speed (%.1f s wall-clock)" attempted
        !elapsed (Stopwatch.elapsed_s wall) ]
  in
  let volume = Array.fold_left (fun acc v -> acc + Option.value v ~default:0) 0 volumes in
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let m name value unit = { name; value; unit } in
  let end_to_end =
    [ m "setup_s" setup_s "s";
      m "latency_p50_s" (median !latencies) "s";
      m "latency_tail_s" latency_tail "s";
      m "throughput_ops_s" (count /. total !latencies) "1/s";
      m "volume" (float_of_int volume) "cells";
      m "alloc_mb_per_op" (mb (total !allocs) /. count) "MB";
      m "peak_heap_mb" (mb (float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes)) "MB" ]
  in
  (* Per-layer sums over the traced spans; a layer's self time and
     allocation exclude its child spans. *)
  let spans = Layers.spans rec_ in
  let child_time = Hashtbl.create 64 and child_alloc = Hashtbl.create 64 in
  List.iter
    (fun (s : Layers.span) ->
      if s.parent >= 0 then begin
        let add tbl v =
          Hashtbl.replace tbl s.parent (v +. Option.value (Hashtbl.find_opt tbl s.parent) ~default:0.0)
        in
        add child_time (s.stop_s -. s.start_s);
        add child_alloc s.alloc_bytes
      end)
    spans;
  let sum layer f =
    List.fold_left (fun acc (s : Layers.span) -> if s.layer = layer then acc +. f s else acc) 0.0 spans
  in
  let self_s layer =
    sum layer (fun s ->
        s.stop_s -. s.start_s -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0)
  in
  let self_alloc layer =
    sum layer (fun s -> s.alloc_bytes -. Option.value (Hashtbl.find_opt child_alloc s.id) ~default:0.0)
  in
  let counter layer name =
    sum layer (fun s -> float_of_int (Option.value (List.assoc_opt name s.counters) ~default:0))
  in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let per_op x = x /. count in
  let all_stages name =
    List.fold_left (fun acc l -> acc +. counter l name) 0.0 Flow.stage_names
  in
  let artifact = [ "artifact.key"; "artifact.read"; "artifact.decode" ] in
  let per_layer =
    [ m "preprocess.self_s" (per_op (self_s "preprocess")) "s";
      m "preprocess.alloc_mb" (per_op (mb (self_alloc "preprocess"))) "MB";
      m "bridging.self_s" (per_op (self_s "bridging")) "s";
      m "bridging.alloc_mb" (per_op (mb (self_alloc "bridging"))) "MB";
      m "bridging.merge_ratio"
        (ratio (counter "bridging" "merges") (counter "bridging" "merge_attempts"))
        "ratio";
      m "placement.self_s" (per_op (self_s "placement")) "s";
      m "placement.alloc_mb" (per_op (mb (self_alloc "placement"))) "MB";
      m "placement.sa_moves" (per_op (counter "placement" "sa_moves")) "count";
      m "placement.accept_ratio"
        (ratio (counter "placement" "sa_accepted") (counter "placement" "sa_moves"))
        "ratio";
      m "placement.alloc_b_per_move"
        (ratio (self_alloc "placement") (counter "placement" "sa_moves"))
        "B/move";
      m "routing.self_s" (per_op (self_s "routing")) "s";
      m "routing.alloc_mb" (per_op (mb (self_alloc "routing"))) "MB";
      m "routing.expansions" (per_op (counter "routing" "astar_expansions")) "count";
      m "routing.heap_pushes" (per_op (counter "routing" "heap_pushes")) "count";
      m "routing.passes" (per_op (counter "routing" "ripup_passes")) "count";
      m "routing.nets_ripped" (per_op (counter "routing" "nets_ripped")) "count";
      m "routing.spliced_reroutes" (per_op (counter "routing" "spliced_reroutes")) "count";
      m "routing.first_pass_ratio"
        (ratio (counter "routing" "routed_first_pass") (counter "routing" "nets"))
        "ratio";
      m "routing.alloc_b_per_expansion"
        (ratio (self_alloc "routing") (counter "routing" "astar_expansions"))
        "B/expansion";
      m "artifact.key_s" (per_op (self_s "artifact.key")) "s";
      m "artifact.read_s" (per_op (self_s "artifact.read")) "s";
      m "artifact.decode_s" (per_op (self_s "artifact.decode")) "s";
      m "artifact.alloc_mb"
        (per_op (mb (List.fold_left (fun acc l -> acc +. self_alloc l) 0.0 artifact)))
        "MB";
      m "artifact.bytes_read" (per_op (counter "artifact.read" "bytes")) "B";
      m "artifact.hit_ratio"
        (ratio (all_stages "cache_hit") (all_stages "cache_hit" +. all_stages "cache_miss"))
        "ratio";
      m "verify.validate_s" (per_op (self_s "verify.validate")) "s";
      m "verify.oracle_s" (per_op (self_s "verify.oracle")) "s";
      m "trace.overhead_s" (per_op (total !overheads)) "s" ]
  in
  { correct = !problems = [];
    attempted;
    failed = !failed;
    problems = List.rev !problems;
    rejected = List.rev !rejected;
    notes;
    end_to_end;
    per_layer;
    recorder = rec_ }

let metric_value r name =
  (List.find (fun m -> m.name = name) (r.end_to_end @ r.per_layer)).value

let result_json r ~trace =
  let metrics = if trace then r.per_layer else r.end_to_end in
  Json.Obj
    [ ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit) ]))
             metrics) ) ]
