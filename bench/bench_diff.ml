(* Headline-throughput regression gate.

   Reads a BENCH_headline.json (freshly produced by `engine_bench
   --headline-only`; a full run's BENCH_congest.json carries the same
   headline section) and checks the headline speedup —
   headline.speedup_rounds_per_sec, the fast engine's rounds/s over
   the reference engine's on the BFS-on-ER n=16384 workload — against
   a committed floor. Both sides are measured in the same run on the
   same host, so the ratio is
   comparable across hosts and core counts where raw rounds/s is not;
   the gate runs everywhere. The floor sits below every ratio observed
   on a quiet host (see CHANGES.md), so only a real regression of the
   fast path (an engine hot-loop slowdown, e.g. instrumentation leaking
   into the per-round path) trips it.

   Exit codes: 0 pass (or a smoke-mode file, skipped), 1 regression,
   2 unreadable input. *)

let usage () =
  prerr_endline
    "usage: bench_diff [FILE] [--floor X]\n\
     Compare FILE's (default BENCH_headline.json) headline fast/reference\n\
     speedup against the committed floor.";
  exit 2

let () =
  let file = ref "BENCH_headline.json" in
  let floor = ref 2.4 in
  let rec parse = function
    | [] -> ()
    | "--floor" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f -> floor := f; parse rest
      | None -> usage ())
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage ()
    | a :: rest -> file := a; parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let open Lightnet.Obs_json in
  let j =
    try parse_file !file
    with Sys_error e | Error e ->
      Printf.eprintf "bench_diff: cannot read %s: %s\n" !file e;
      exit 2
  in
  match
    ( to_string_opt (path [ "meta"; "mode" ] j),
      to_float_opt (path [ "headline"; "speedup_rounds_per_sec" ] j) )
  with
  | Some mode, Some speedup -> (
    if mode <> "full" then begin
      (* Smoke runs use n=256 — a different workload entirely. *)
      Printf.printf
        "bench-diff: SKIP — %s is a %S-mode run, the floor is calibrated on \
         the full headline (n=16384)\n"
        !file mode;
      exit 0
    end;
    match classify_float speedup with
    | FP_nan | FP_infinite ->
      Printf.printf "bench-diff: FAIL — headline speedup is %f\n" speedup;
      exit 1
    | _ ->
      if speedup >= !floor then begin
        Printf.printf
          "bench-diff: OK — headline speedup %.2fx (fast vs reference) >= \
           floor %.2fx\n"
          speedup !floor;
        exit 0
      end
      else begin
        Printf.printf
          "bench-diff: FAIL — headline speedup %.2fx (fast vs reference) \
           under the committed floor %.2fx; the engine hot path regressed\n"
          speedup !floor;
        exit 1
      end)
  | _ ->
    Printf.eprintf
      "bench_diff: %s lacks meta.mode / headline.speedup_rounds_per_sec\n"
      !file;
    exit 2
