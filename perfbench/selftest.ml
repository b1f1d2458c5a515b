(* Determinism self-test. Two traced runs at one seed must do identical
   work, and the traced composition must reproduce Flow.run's volume on
   every op ([Driver.run] marks a run incorrect otherwise), so the traced run
   measures the same program as the timed one. *)

module Driver = Perfbench.Driver

let ops = function
  | Perfbench.Corpus.Table1_cli -> 1
  | Perfbench.Corpus.Random_effort -> 3
  | Perfbench.Corpus.Warm_rerun -> 2

let exact = [ "volume"; "routing.expansions"; "routing.heap_pushes"; "placement.sa_moves" ]

let () =
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> incr failures; prerr_endline s) fmt in
  List.iter
    (fun (name, w) ->
      let cfg =
        { Driver.workload = w;
          seed = 7;
          stop = Driver.Ops (ops w);
          trace = true;
          setups = 1;
          work_dir = "selftest-work" }
      in
      let a = Driver.run cfg and b = Driver.run cfg in
      List.iter (fun p -> fail "%s: %s" name p) (a.Driver.problems @ b.Driver.problems);
      List.iter
        (fun m ->
          let x = Driver.metric_value a m and y = Driver.metric_value b m in
          if x <> y then fail "%s: %s differs between two runs at one seed: %g vs %g" name m x y)
        exact;
      Printf.printf "%s: %d ops, volume %.0f, routing.expansions %.0f, placement.sa_moves %.0f\n"
        name a.Driver.attempted (Driver.metric_value a "volume")
        (Driver.metric_value a "routing.expansions")
        (Driver.metric_value a "placement.sa_moves"))
    Perfbench.Corpus.workloads;
  if !failures > 0 then exit 1
