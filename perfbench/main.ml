(* Command line of the compile benchmark; see README.md. The last line of
   standard output is the result object; the report goes to standard
   error. *)

let usage =
  "main.exe --workload (table1_cli|random_effort|warm_rerun) --seed N --seconds S --trace (0|1) \
   [--work-dir DIR]"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let work_dir = ref (Filename.concat ".bench_build" "perfbench") in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (orders the ops)");
      ("--seconds", Arg.Set_float seconds, "S length of the measured loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch directory (default .bench_build/perfbench)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let workload =
    match List.assoc_opt !workload Perfbench.Corpus.workloads with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if (!trace <> 0 && !trace <> 1) || !seconds <= 0.0 then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 in
  let cfg =
    { Perfbench.Driver.workload;
      seed = !seed;
      stop = Perfbench.Driver.Seconds !seconds;
      trace;
      setups = 3;
      work_dir = !work_dir }
  in
  let r = Perfbench.Driver.run cfg in
  let name = Perfbench.Corpus.workload_name workload in
  Printf.eprintf "perfbench %s seed %d%s: %d ops attempted, %d failed (fail_rate %.4f)\n" name !seed
    (if trace then " (traced)" else "")
    r.attempted r.failed
    (float_of_int r.failed /. float_of_int r.attempted);
  List.iter (Printf.eprintf "  rejected %s\n") r.rejected;
  List.iter (Printf.eprintf "  INCORRECT %s\n") r.problems;
  List.iter
    (fun (m : Perfbench.Driver.metric) -> Printf.eprintf "  %-32s %14.6g %s\n" m.name m.value m.unit)
    (if trace then r.per_layer else r.end_to_end);
  if not trace then List.iter (Printf.eprintf "  %s\n") r.notes;
  if trace then begin
    let path = Filename.concat !work_dir (Printf.sprintf "spans-%s-seed%d.json" name !seed) in
    let oc = open_out path in
    output_string oc
      (Tqec_obs.Json.to_string
         (Tqec_obs.Json.Obj
            [ ("workload", Tqec_obs.Json.String name);
              ("seed", Tqec_obs.Json.Int !seed);
              ("spans", Perfbench.Layers.to_json r.recorder) ]));
    close_out oc;
    Printf.eprintf "  spans written to %s\n" path
  end;
  print_endline (Tqec_obs.Json.to_string (Perfbench.Driver.result_json r ~trace))
