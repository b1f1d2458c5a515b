(* The circuits each workload compiles, and the order it compiles them in.

   Each workload compiles a fixed corpus; the workload seed draws the order
   of every pass over it. Op cost varies 5x between Table I generator
   seeds and 100x between random draws, and a run holds only 20-120 ops:
   redrawing the circuits from the seed, simulated from measured
   per-circuit op times, moved medians by 10-50% from seed to seed. With a
   fixed corpus two seeds differ only in op order. *)

module Flow = Tqec_core.Flow
module Circuit = Tqec_circuit.Circuit
module Benchmarks = Tqec_circuit.Benchmarks
module Rng = Tqec_prelude.Rng

type workload = Table1_cli | Random_effort | Warm_rerun

let workloads =
  [ ("table1_cli", Table1_cli); ("random_effort", Random_effort); ("warm_rerun", Warm_rerun) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

type identity =
  | Table1 of { benchmark : string; gen_seed : int }
  | Draw of { index : int }

type item = { identity : identity; circuit : Circuit.t; options : Flow.options }

(* Random draws come from this fixed root; the workload seed only orders them. *)
let draw_root = 2021

let describe = function
  | Table1 { benchmark; gen_seed } ->
      Printf.sprintf "%s generator seed %d (replay: tqec_compress --benchmark %s --seed %d)"
        benchmark gen_seed benchmark gen_seed
  | Draw { index } ->
      Printf.sprintf
        "random draw %d (Circuit_gen.circuit ~min_qubits:3 ~max_qubits:8 ~max_gates:16 over \
         Rng.stream ~root:%d %d, Effort Normal)"
        index draw_root index

(* Exactly the options [tqec_compress --benchmark NAME --seed S] builds: the
   seed feeds both the generator and the placement RNG. *)
let table1 benchmark gen_seed =
  let spec = Option.get (Benchmarks.find benchmark) in
  let base = Flow.default_options in
  { identity = Table1 { benchmark; gen_seed };
    circuit = Benchmarks.generate ~seed:gen_seed spec;
    options = { base with Flow.place = { base.Flow.place with Tqec_place.Place25d.seed = gen_seed } } }

let draw index =
  let gen =
    Tqec_fuzzing.Circuit_gen.circuit ~min_qubits:3 ~max_qubits:8 ~max_gates:16 ()
  in
  let circuit = Tqec_proptest.Gen.run gen (Rng.stream ~root:draw_root index) in
  let gates = (Tqec_icm.Stats.of_circuit circuit).Tqec_icm.Stats.cnots in
  { identity = Draw { index };
    circuit;
    options = Tqec_report.Effort.options_for ~level:Tqec_report.Effort.Normal ~gates () }

let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

(* 4gt4 appears twice as often as 4gt10: with equal shares the median op
   would fall in the gap between their op times (about 0.3 s against
   1.5 s), so it would be the latency of no op. *)
let items = function
  | Table1_cli ->
      List.map (table1 "4gt10-v1_81") (range 1 3) @ List.map (table1 "4gt4-v0_73") (range 1 6)
  | Random_effort -> List.map draw (range 0 31)
  | Warm_rerun -> table1 "4gt10-v1_81" 1 :: List.map (table1 "4gt4-v0_73") (range 1 2)

(* Indices into the corpus, in the order pass [pass] of a run at [seed]
   compiles them. *)
let pass_order ~seed ~pass ~n =
  let order = Array.init n Fun.id in
  Rng.shuffle (Rng.stream ~root:seed pass) order;
  order
