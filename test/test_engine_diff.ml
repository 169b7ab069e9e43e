(* Differential tests: the fast engine (arena mailboxes, active-set
   scheduler) must be observationally identical to the reference
   list-based engine — same final states, same stats, and the same
   observer call sequence — on randomized word-bounded flood programs
   over random graphs. The programs are deterministic functions of a
   seed (no hidden Random state), so running each engine once is a
   fair comparison; their step functions fold the inbox with a
   non-commutative operation so that any divergence in message
   ordering is caught, not just in message multisets. *)

module Graph = Ln_graph.Graph
module Gen = Ln_graph.Gen
module Engine = Ln_congest.Engine

(* A small deterministic mixer (splitmix-style). *)
let mix a b c d =
  let h = ref (a * 0x9E3779B1) in
  h := (!h lxor (b * 0x85EBCA6B)) * 0xC2B2AE35;
  h := (!h lxor (c * 0x27D4EB2F)) * 0x165667B1;
  h := !h lxor (d * 0x9E3779B1);
  h := !h lxor (!h lsr 15);
  abs !h

(* A word-bounded pseudorandom flood: every node stays active for
   [ttl] rounds, sending over a seed-dependent subset of its edges
   each round; payloads and word sizes are seed-dependent; state is an
   order-sensitive digest of everything received. *)
let flood_program ~seed ~ttl ~word_cap : (int, int) Engine.program =
  let open Engine in
  let payload_of ~me ~round ~edge = mix seed me round edge mod 1000 in
  let sends ctx ~round ~state =
    List.rev
      (ctx_fold_neighbors ctx
         (fun acc edge _ ->
           if mix seed (ctx.me + state) round edge mod 3 <> 0 then
             { via = edge; msg = payload_of ~me:ctx.me ~round ~edge } :: acc
           else acc)
         [])
  in
  {
    name = "rand-flood";
    words = (fun m -> 1 + (abs m mod word_cap));
    init = (fun ctx -> (ctx.me, sends ctx ~round:0 ~state:0));
    step =
      (fun ctx ~round s inbox ->
        let s =
          List.fold_left
            (fun acc (r : int received) ->
              (acc * 31) + (r.from * 7) + r.payload + r.edge)
            s inbox
        in
        let s = s land 0xFFFFFF in
        if round <= ttl then (s, sends ctx ~round ~state:s, round < ttl)
        else (s, [], false));
  }

type event = { round : int; from : int; dest : int; words : int }

let record_observer events ~round ~from ~dest ~words =
  events := { round; from; dest; words } :: !events

let run_both ?max_rounds g program =
  let ev_fast = ref [] and ev_ref = ref [] in
  let fast =
    Engine.run_fast ?max_rounds ~on_round_limit:`Mark
      ~observer:(record_observer ev_fast) g program
  in
  let reference =
    Engine.run_reference ?max_rounds ~on_round_limit:`Mark
      ~observer:(record_observer ev_ref) g program
  in
  (fast, reference, !ev_fast, !ev_ref)

let graph_of ~n ~seed =
  let rng = Random.State.make [| seed; 17 |] in
  let p = 0.05 +. (float_of_int (seed mod 7) /. 10.0) in
  Gen.erdos_renyi rng ~n ~p ()

let prop_states_and_stats_agree =
  QCheck2.Test.make ~name:"fast and reference engines agree (states, stats, observer)"
    ~count:150
    QCheck2.Gen.(
      triple (int_range 2 60) (int_range 0 100_000) (int_range 0 12))
    (fun (n, seed, ttl) ->
      let g = graph_of ~n ~seed in
      let word_cap = 4 in
      let program = flood_program ~seed ~ttl ~word_cap in
      let (s_fast, st_fast), (s_ref, st_ref), ev_fast, ev_ref =
        run_both g program
      in
      s_fast = s_ref && st_fast = st_ref && ev_fast = ev_ref)

(* The round-limit marker must also agree: truncate runs at a random
   cap and compare rounds, outcome and partial states. *)
let prop_round_limit_agrees =
  QCheck2.Test.make ~name:"fast and reference engines agree under max_rounds"
    ~count:80
    QCheck2.Gen.(
      triple (int_range 2 40) (int_range 0 100_000) (int_range 0 6))
    (fun (n, seed, cap) ->
      let g = graph_of ~n ~seed in
      let program = flood_program ~seed ~ttl:10 ~word_cap:4 in
      let (s_fast, st_fast), (s_ref, st_ref), ev_fast, ev_ref =
        run_both ~max_rounds:cap g program
      in
      s_fast = s_ref && st_fast = st_ref && ev_fast = ev_ref)

(* Sparse-phase workload aimed at the active-set scheduler: a token
   walks a path graph, so all but one node are quiescent each round. *)
let token_walk len : (int, unit) Engine.program =
  let open Engine in
  {
    name = "token-walk";
    words = (fun () -> 1);
    init =
      (fun ctx ->
        if ctx.me = 0 then (1, [ { via = ctx_edge ctx 0; msg = () } ])
        else (0, []));
    step =
      (fun ctx ~round:_ s inbox ->
        match inbox with
        | [] -> (s, [], false)
        | { edge; _ } :: _ ->
          let forward =
            List.rev
              (ctx_fold_neighbors ctx
                 (fun acc e _ ->
                   if e <> edge && ctx.me < len then { via = e; msg = () } :: acc
                   else acc)
                 [])
          in
          (s + 1, forward, false));
  }

let test_token_walk_agrees () =
  let g = Gen.path 64 in
  let program = token_walk 64 in
  let (s_fast, st_fast), (s_ref, st_ref), ev_fast, ev_ref =
    run_both g program
  in
  Alcotest.(check bool) "states" true (s_fast = s_ref);
  Alcotest.(check bool) "stats" true (st_fast = st_ref);
  Alcotest.(check bool) "events" true (ev_fast = ev_ref);
  (* The scheduler must actually skip the quiescent tail. *)
  let perf = Engine.create_perf () in
  let _ = Engine.run_fast ~perf g program in
  Alcotest.(check bool) "scheduler skips quiescent nodes" true
    (Engine.skip_ratio perf > 0.5)

let test_backend_dispatch () =
  let g = Gen.path 8 in
  let program = token_walk 8 in
  let _, st_default = Engine.run g program in
  let _, st_ref =
    Engine.with_backend Engine.Reference (fun () -> Engine.run g program)
  in
  Alcotest.(check bool) "dispatch restores backend" true
    (Engine.current_backend () = Engine.Fast);
  Alcotest.(check bool) "same stats through dispatch" true (st_default = st_ref)

module Telemetry = Ln_congest.Telemetry

(* Run one backend under a fresh telemetry recording, capturing result,
   observer events and the canonical stream. [runner] receives the
   observer first (a concrete label dodges optional-argument
   inference). *)
let capture runner g program =
  let ev = ref [] in
  let res, tr =
    Telemetry.record (fun () -> runner (record_observer ev) g program)
  in
  (res, !ev, Telemetry.deterministic_lines tr)

(* ------------------------------------------------------------------ *)
(* Topology stress for the flat-ctx hot path. Power-law RMAT graphs
   exercise exactly what uniform Erdős–Rényi samples cannot: hub nodes
   whose inbox chains span a large fraction of the arena, so the
   stamp-guarded chain walk and the dense-round membership scan both
   see heavy skew. Seeds are pinned through the generator so every
   replay builds the same graph. *)

let graph_rmat ~scale ~seed =
  let rng = Random.State.make [| seed; 0x9a7 |] in
  Gen.ensure_connected rng (Gen.rmat rng ~scale ~edge_factor:8 ())

let prop_rmat_all_backends_agree =
  QCheck2.Test.make
    ~name:"RMAT topology: fast = reference (states, stats, telemetry)"
    ~count:12
    QCheck2.Gen.(
      triple (int_range 4 7) (int_range 0 100_000) (int_range 0 8))
    (fun (scale, seed, ttl) ->
      let g = graph_rmat ~scale ~seed in
      let program = flood_program ~seed ~ttl ~word_cap:4 in
      let fast =
        capture
          (fun obs g p ->
            Engine.run_fast ~on_round_limit:`Mark ~observer:obs g p)
          g program
      in
      let reference =
        capture
          (fun obs g p ->
            Engine.run_reference ~on_round_limit:`Mark ~observer:obs g p)
          g program
      in
      fast = reference)

(* A star graph concentrates every message of a round onto one hub, so
   the hub's arena inbox chain is as long as the graph is wide. The
   digest is order-sensitive: the chain must unwind to exactly the
   reference engine's prepend order or the fold diverges. *)
let star_inbox_chain () =
  let n = 4097 in
  let g = Gen.star n in
  let open Engine in
  let program : (int, int) Engine.program =
    {
      name = "star-chain";
      words = (fun _ -> 1);
      init =
        (fun ctx ->
          if ctx_degree ctx = 1 then
            (0, [ { via = ctx_edge ctx 0; msg = ctx.me } ])
          else (1, []));
      step =
        (fun _ctx ~round:_ s inbox ->
          let s =
            List.fold_left
              (fun acc (r : int received) -> (acc * 131) + r.payload + r.from)
              s inbox
          in
          (s land 0x3FFFFFFF, [], false));
    }
  in
  let fast =
    capture (fun obs g p -> Engine.run_fast ~observer:obs g p) g program
  in
  let reference =
    capture (fun obs g p -> Engine.run_reference ~observer:obs g p) g program
  in
  Alcotest.(check bool) "fast = reference on star hub" true (fast = reference);
  let (states, _), _, _ = fast in
  (* The hub saw all n-1 leaves; a zero digest would mean an empty or
     truncated chain slipped through. *)
  Alcotest.(check bool) "hub digest nonzero" true (states.(0) <> 1)

(* Fixed QCheck seed: dune runtest must be deterministic, and any
   failure replayable from the printed counterexample alone. *)
let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed4 |]) t

let () =
  Alcotest.run "ln_congest_diff"
    [
      ( "differential",
        [
          qcheck prop_states_and_stats_agree;
          qcheck prop_round_limit_agrees;
          qcheck prop_rmat_all_backends_agree;
          Alcotest.test_case "token walk (sparse phases)" `Quick
            test_token_walk_agrees;
          Alcotest.test_case "star hub inbox chain" `Quick star_inbox_chain;
          Alcotest.test_case "backend dispatch" `Quick test_backend_dispatch;
        ] );
    ]
