(* gkbench: the out-of-process GKBMS benchmark.

     gkbench --workload NAME --seed N --seconds S --trace 0|1
     gkbench selftest

   Each workload runs against real `gkbms serve` child processes (a
   leader and a follower for design-session) with load from this one
   process over at most two connections in a closed loop.  The last
   line of standard output is one JSON object: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Why each
   workload exists, the flush policy and the noise findings that
   shaped the design are in NOTES.md. *)

open Load

let ( let* ) = Result.bind

type size = {
  full_size : bool;
      (** false: one round, one set-up, no tail guard (the self-test) *)
  history : int;  (** browse-history: decisions grown at set-up *)
  prehistory : int;  (** design-session: decisions before the follower joins *)
  decide_probe : int;  (** revisions in browse-history's decision probe *)
  replay_cap : int;  (** decisions replayed in-process for core.decide_eval_ms *)
}

let full =
  { full_size = true; history = 800; prehistory = 200; decide_probe = 2200;
    replay_cap = 2000 }

let tiny =
  { full_size = false; history = 30; prehistory = 20; decide_probe = 20;
    replay_cap = 20 }

(* ---- metric catalogue --------------------------------------------------- *)

(* End-to-end metrics: name, unit.  Printed with --trace 0. *)
let end_to_end =
  [ ("setup_s", "s"); ("ops_s", "1/s"); ("decide_p50_ms", "ms");
    ("decide_p99_ms", "ms"); ("read_p50_ms", "ms"); ("read_p99_ms", "ms");
    ("rss_peak_mb", "MB") ]

let read_verbs = Array.to_list (Array.map fst Gen.read_verbs)

(* Per-layer metrics: name, unit.  Printed with --trace 1; 0 where the
   layer does no work in the workload. *)
let per_layer =
  [ ("server.overhead_ms", "ms"); ("server.cache_hit_ratio", "ratio");
    ("server.cpu_ms_per_op", "ms"); ("server.request_self_ms.decide", "ms");
    ("server.request_self_ms.read", "ms");
    ("core.shell_eval_self_ms.decide", "ms");
    ("core.shell_eval_self_ms.read", "ms");
    ("core.decision_execute_self_ms", "ms");
    ("core.decision_check_inputs_ms", "ms"); ("core.decision_tool_run_ms", "ms");
    ("core.decision_consistency_check_ms", "ms");
    ("core.decision_check_outputs_ms", "ms");
    ("core.decision_bookkeeping_ms", "ms"); ("core.decision_commit_ms", "ms");
    ("core.decide_eval_ms", "ms") ]
  @ [ ("cml.kb_cache_hit_ratio", "ratio");
      ("cml.kb_invalidations_per_decision", "count");
      ("logic.resolutions_per_read", "count"); ("logic.index_hit_ratio", "ratio");
      ("logic.lemma_hit_ratio", "ratio"); ("planner.plans_per_derive", "count");
      ("store.props", "count"); ("store.props_per_decision", "count");
      ("durability.syncs_per_decision", "count");
      ("durability.wal_bytes_per_decision", "B"); ("durability.sync_ms", "ms");
      ("durability.wal_append_ms", "ms"); ("durability.checkpoints", "count");
      ("durability.checkpoint_ms", "ms"); ("durability.recover_s", "s");
      ("replication.lag_p50_ms", "ms"); ("replication.lag_p99_ms", "ms");
      ("replication.bytes_per_decision", "B"); ("obs.trace_overhead", "ratio");
      ("unattributed_ms.decide", "ms"); ("unattributed_ms.read", "ms") ]
  @ List.map (fun v -> ("core.read_eval_ms." ^ v, "ms")) read_verbs

(* Server span name -> per-layer metric, for the self times sampled
   from `trace dump`. *)
let span_metrics =
  [ ("server.request", "server.request_self_ms");
    ("shell.eval", "core.shell_eval_self_ms");
    ("decision.execute", "core.decision_execute_self_ms");
    ("decision.check_inputs", "core.decision_check_inputs_ms");
    ("decision.tool_run", "core.decision_tool_run_ms");
    ("decision.consistency_check", "core.decision_consistency_check_ms");
    ("decision.check_outputs", "core.decision_check_outputs_ms");
    ("decision.bookkeeping", "core.decision_bookkeeping_ms");
    ("decision.commit", "core.decision_commit_ms");
    ("wal.append", "durability.wal_append_ms") ]

let class_of_cmd = function
  | "run" -> Some Decide
  | v when List.mem v read_verbs -> Some Read
  | _ -> None

(* ---- environment record ------------------------------------------------- *)

(* Printed beside the metrics so slow phases of a shared box show; never
   used to scale a metric. *)
let environment dir =
  let commit =
    try
      let head = String.trim (In_channel.with_open_text ".git/HEAD" In_channel.input_all) in
      if String.starts_with ~prefix:"ref: " head then
        let r = String.sub head 5 (String.length head - 5) in
        String.trim (In_channel.with_open_text (Filename.concat ".git" r) In_channel.input_all)
      else head
    with _ -> "unknown"
  in
  (* a raw fsync on an appending file, as the WAL does it *)
  let fsync_ms =
    let path = Filename.concat dir "fsync.probe" in
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
    let times =
      List.init 40 (fun _ ->
          let t0 = Unix.gettimeofday () in
          ignore (Unix.write_substring fd "0123456789abcdef" 0 16);
          Unix.fsync fd;
          (Unix.gettimeofday () -. t0) *. 1e3)
    in
    Unix.close fd;
    Sys.remove path;
    Stats.median times
  in
  (* a fixed CPU loop *)
  let cpu_ms =
    let t0 = Unix.gettimeofday () in
    let acc = ref 0 in
    for i = 1 to 100_000_000 do
      acc := (!acc * 31) + (i lxor (!acc lsr 7))
    done;
    ignore (Sys.opaque_identity !acc);
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  Printf.printf "env: nproc=%d ocaml=%s commit=%s fsync_probe_ms=%.3f cpu_probe_ms=%.1f\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (if String.length commit > 12 then String.sub commit 0 12 else commit)
    fsync_ms cpu_ms

(* ---- helpers over a live server ----------------------------------------- *)

let prom client = Stats.parse_prom (control client "metrics prom")

let props client =
  let s = control client "stats" in
  Scanf.sscanf s "propositions: %d" float_of_int

(* "run executed: decision dec7 -> MinuteRel3" -> ("dec7", "MinuteRel3") *)
let parse_run payload =
  match String.split_on_char ' ' payload with
  | "run" :: "executed:" :: "decision" :: dec :: "->" :: out :: _ -> Some (dec, out)
  | _ -> None

let dec_number d = int_of_string (String.sub d 3 (String.length d - 3))

(* A revision op whose response must name the predicted version; acked
   decisions are collected (decision id, line). *)
let acked = ref []
let acked_m = Mutex.create ()

let edit_op (e : Gen.edit) =
  { cls = Decide;
    line = e.Gen.line;
    check =
      (fun payload ->
        match parse_run payload with
        | Some (dec, out) when out = e.Gen.creates ->
          Mutex.lock acked_m;
          acked := (dec_number dec, e.Gen.line) :: !acked;
          Mutex.unlock acked_m;
          true
        | _ -> false) }

let verb_counts = Hashtbl.create 8
let verb_m = Mutex.create ()

(* Start counting acknowledged decisions and read verbs afresh (at the
   start of a timed phase). *)
let reset_counts () =
  acked := [];
  Hashtbl.reset verb_counts

let verb_count v = Option.value (Hashtbl.find_opt verb_counts v) ~default:0

let read_op line =
  let verb = Gen.verb_of_line line in
  Mutex.lock verb_m;
  Hashtbl.replace verb_counts verb
    (1 + Option.value (Hashtbl.find_opt verb_counts verb) ~default:0);
  Mutex.unlock verb_m;
  { cls = Read; line; check = (fun _ -> true) }

let stream_edits ~seed ~stream chains =
  let next = Gen.edits ~seed ~stream chains in
  fun () -> edit_op (next ())

let t_start = Unix.gettimeofday ()

(* Progress on standard output, with the time since start. *)
let step what = Printf.printf "[%6.2fs] %s\n%!" (Unix.gettimeofday () -. t_start) what

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Repeat set-up [n] times, keeping the last; the others are stopped
   and their directories removed. *)
let repeated_setup ~n ~dir setup teardown =
  let rec go k times =
    let sub = Filename.concat dir (Printf.sprintf "rep%d" k) in
    Unix.mkdir sub 0o755;
    let st, dt = time (fun () -> setup sub) in
    if k = n then (st, List.rev (dt :: times))
    else begin
      teardown st;
      Proc.rm_rf sub;
      go (k + 1) (dt :: times)
    end
  in
  go 1 []

(* ---- results ------------------------------------------------------------ *)

type result = {
  setup_times : float list;
  phase : phase;
  probe : (cls * tally) option;  (** a fixed probe of the missing class *)
  rss_mb : float;
  layers : (string * float) list;  (** per-layer values measured directly *)
  check : (string, string) Stdlib.result;
  checkpoints : int;
}

(* ---- workloads ---------------------------------------------------------- *)

type ctx = {
  seed : int;
  work : int;  (** the round's timed ops: decisions (reads in browse-history) *)
  last_round : bool;
  setups : int;  (** set-ups in this round; all but the last are discarded *)
  trace : bool;
  size : size;
  dir : string;
  scenario : Gkbms.Scenario.state;
  docs : string list;
}

let sock dir name = Filename.concat dir (name ^ ".sock")

let serve ~dir ~name args =
  let socket = sock dir name in
  let p =
    Proc.spawn ~name ~log:(Filename.concat dir (name ^ ".log"))
      ("serve" :: socket :: args)
  in
  let c = Proc.connect p socket in
  (p, socket, c)

(* Counter deltas shared by every workload. *)
let layer_deltas ~before ~after ~decisions ~reads ~ops ~cpu_ms ~phase =
  let d = Stats.delta before after in
  let f = float_of_int in
  let hist_mean name ~keep =
    let s = Stats.prom_sum after (name ^ "_sum") ~keep -. Stats.prom_sum before (name ^ "_sum") ~keep in
    let c = Stats.prom_sum after (name ^ "_count") ~keep -. Stats.prom_sum before (name ^ "_count") ~keep in
    Stats.ratio s c
  in
  let op_verb labels =
    List.exists
      (fun v -> labels = Printf.sprintf "{cmd=\"%s\"}" v)
      ("run" :: read_verbs)
  in
  let finite (t : tally) =
    List.filter Float.is_finite (Array.to_list (Array.sub t.lat.Stats.xs 0 t.lat.Stats.n))
  in
  let mean_traced c = Stats.mean (finite (phase.traced c)) in
  let mean_rtt =
    Stats.mean
      (List.concat_map
         (fun c -> finite (phase.untraced c) @ finite (phase.traced c))
         [ Decide; Read ])
  in
  let derives = f (verb_count "derive") in
  let hits = d "gkbms_server_cache_hits_total" and misses = d "gkbms_server_cache_misses_total" in
  let kb_h = d "gkbms_kb_cache_hits_total" and kb_m = d "gkbms_kb_cache_misses_total" in
  let ix_h = d "gkbms_datalog_index_hits_total" and ix_m = d "gkbms_datalog_index_misses_total" in
  let res = d "gkbms_prover_resolutions_total" and lem = d "gkbms_prover_lemma_hits_total" in
  let self cls span =
    let sp = phase.span cls in
    Stats.ratio (Option.value (Hashtbl.find_opt sp.self_ms span) ~default:0.) (f sp.roots)
  in
  let spans =
    List.concat_map
      (fun (span, metric) ->
        match span with
        | "server.request" | "shell.eval" ->
          [ (metric ^ ".decide", self Decide span); (metric ^ ".read", self Read span) ]
        | _ -> [ (metric, self Decide span) ])
      span_metrics
  in
  (* client round trip minus the server's own span tree, both as means
     over the traced windows: self times are means, and a p50 minus a
     mean goes negative on the skewed read mix *)
  let unattributed cls =
    let sp = phase.span cls in
    if sp.roots = 0 then 0. else mean_traced cls -. (sp.root_ms /. f sp.roots)
  in
  [ ("server.overhead_ms",
     mean_rtt
     -. (hist_mean "gkbms_server_command_us" ~keep:op_verb /. 1e3));
    ("server.cache_hit_ratio", Stats.ratio hits (hits +. misses));
    ("server.cpu_ms_per_op", Stats.ratio cpu_ms (f ops));
    ("cml.kb_cache_hit_ratio", Stats.ratio kb_h (kb_h +. kb_m));
    ("cml.kb_invalidations_per_decision",
     Stats.ratio (d "gkbms_kb_cache_invalidations_total") (f decisions));
    ("logic.resolutions_per_read", Stats.ratio res (f reads));
    ("logic.index_hit_ratio", Stats.ratio ix_h (ix_h +. ix_m));
    ("logic.lemma_hit_ratio", Stats.ratio lem (lem +. res));
    ("planner.plans_per_derive", Stats.ratio (d "gkbms_planner_plans_total") derives);
    ("durability.syncs_per_decision", Stats.ratio (d "gkbms_wal_fsyncs_total") (f decisions));
    ("durability.wal_bytes_per_decision",
     Stats.ratio (d "gkbms_wal_append_bytes_total") (f decisions));
    ("durability.sync_ms", hist_mean "gkbms_wal_sync_us" ~keep:(fun _ -> true) /. 1e3);
    ("durability.checkpoints", d "gkbms_checkpoints_total");
    ("durability.checkpoint_ms", hist_mean "gkbms_checkpoint_us" ~keep:(fun _ -> true) /. 1e3);
    ("replication.bytes_per_decision",
     Stats.ratio (d "gkbms_repl_bytes_shipped_total") (f decisions));
    ("unattributed_ms.decide", unattributed Decide);
    ("unattributed_ms.read", unattributed Read) ]
  @ spans

let ok_count phase c = (phase.untraced c).ok + (phase.traced c).ok

(* In-process reference: the same decisions replayed through
   [Gkbms.Shell.eval] on a fresh scenario with [Gkbms.Durable] attached,
   after the untimed [prefix] that grew the history they extend; the
   median eval time. *)
let replay_decisions ctx ~prefix lines =
  match Gen.scenario () with
  | Error e -> failwith e
  | Ok st ->
    let wal = Filename.concat ctx.dir "replay" in
    let durable =
      match Gkbms.Durable.attach ~dir:wal st.Gkbms.Scenario.repo with
      | Ok d -> d
      | Error e -> failwith e
    in
    let shell = Gkbms.Shell.of_repository st.Gkbms.Scenario.repo in
    List.iter (fun line -> ignore (Gkbms.Shell.eval shell line)) prefix;
    let times =
      List.map
        (fun line ->
          let _, dt = time (fun () -> Gkbms.Shell.eval shell line) in
          dt *. 1e3)
        lines
    in
    Gkbms.Durable.close durable;
    Proc.rm_rf wal;
    Stats.median times

let take n l = List.filteri (fun i _ -> i < n) l

let decision_names repo =
  List.map Kernel.Symbol.name (Gkbms.Repository.decision_log repo)

let scenario_props (st : Gkbms.Scenario.state) =
  float_of_int
    (Store.Base.cardinal (Cml.Kb.base (Gkbms.Repository.kb st.Gkbms.Scenario.repo)))

let consistent repo = Cml.Consistency.check_all (Gkbms.Repository.kb repo) = []

(* Grow a decision history of [n] revisions over [chains] through the
   protocol (pipelined); every response must name the predicted
   version.  Returns the lines sent and the decisions they made. *)
let grow client ~seed ~stream chains n =
  let next = Gen.edits ~seed ~stream chains in
  let edits = List.init n (fun _ -> next ()) in
  let lines = List.map (fun (e : Gen.edit) -> e.Gen.line) edits in
  let decisions =
    List.map2
      (fun (e : Gen.edit) r ->
        match r with
        | Ok payload -> (
          match parse_run payload with
          | Some (dec, out) when out = e.Gen.creates -> dec
          | _ -> failwith (Printf.sprintf "set-up: %s -> %s" e.Gen.line payload))
        | Error payload -> failwith (Printf.sprintf "set-up: %s -> %s" e.Gen.line payload))
      edits
      (Server.Client.pipeline ~window:16 client lines)
  in
  (lines, decisions)

(* The scenario's design objects (every one exists on a fresh server). *)
let scenario_objects repo =
  List.map Kernel.Symbol.name (Gkbms.Repository.all_design_objects repo)
  |> List.filter (fun n -> not (String.contains n '!'))

(* Digest of every response to each distinct read line, from all
   connections; a line answered two ways is kept as [None]. *)
let served : (string, Digest.t option) Hashtbl.t = Hashtbl.create 8192
let served_m = Mutex.create ()

let digest_read line =
  let op = read_op line in
  { op with
    check =
      (fun payload ->
        let d = Digest.string payload in
        Mutex.lock served_m;
        (match Hashtbl.find_opt served line with
        | None -> Hashtbl.replace served line (Some d)
        | Some (Some d') when d' <> d -> Hashtbl.replace served line None
        | Some _ -> ());
        Mutex.unlock served_m;
        true) }

(* The in-process reference for browse-history: the same history grown
   through [Gkbms.Shell.eval] on a fresh scenario, then each distinct
   read line evaluated once: (digest, ms), memoized across the rounds of
   a run, which all grow the same history. *)
let reference_shell = ref None
let reference_evals : (string, Digest.t * float) Hashtbl.t = Hashtbl.create 8192

let reference history line =
  let shell =
    match !reference_shell with
    | Some (h, sh) when h = history -> sh
    | _ ->
      let st = match Gen.scenario () with Ok st -> st | Error e -> failwith e in
      let sh = Gkbms.Shell.of_repository st.Gkbms.Scenario.repo in
      List.iter (fun l -> ignore (Gkbms.Shell.eval sh l)) history;
      reference_shell := Some (history, sh);
      Hashtbl.reset reference_evals;
      sh
  in
  match Hashtbl.find_opt reference_evals line with
  | Some r -> r
  | None ->
    let out, dt = time (fun () -> Gkbms.Shell.eval shell line) in
    let r = (Digest.string out, dt *. 1e3) in
    Hashtbl.replace reference_evals line r;
    r

(* browse-history: two connections browsing and querying a GKB first
   grown to a long decision history, then a fixed decision probe. *)
let browse_history ctx =
  let setup sub =
    let p, socket, c = serve ~dir:sub ~name:"server" [] in
    let chains = List.map Gen.chain_of ctx.docs in
    let lines, _ = grow c ~seed:ctx.seed ~stream:100 chains ctx.size.history in
    (p, socket, c, chains, lines)
  in
  let (p, socket, c0, chains, history), setup_times =
    repeated_setup ~n:ctx.setups ~dir:ctx.dir setup (fun (p, _, c, _, _) ->
        Server.Client.close c;
        Proc.stop p)
  in
  let c1 = Proc.connect p socket in
  let objects =
    List.sort_uniq String.compare
      (scenario_objects ctx.scenario.Gkbms.Scenario.repo @ Gen.versions chains)
  in
  step
    (Printf.sprintf "%d objects, %d distinct read lines" (List.length objects)
       (List.length objects * Array.length Gen.read_verbs));
  let before = prom c0 and cpu0 = Proc.cpu_ms p in
  Hashtbl.reset served;
  (* both connections deal from one deck: the round's reads *)
  let deck = Gen.read_deck ~seed:ctx.seed ~stream:1 objects ctx.work in
  let dealt = Atomic.make 0 in
  let deal () =
    let i = Atomic.fetch_and_add dealt 1 in
    if i < Array.length deck then Some (digest_read deck.(i)) else None
  in
  let conns = [ (c0, deal); (c1, deal) ] in
  step "set-up done; timed phase";
  reset_counts ();
  let phase = Load.run ~trace:ctx.trace ~class_of_cmd conns in
  let cpu_ms = Proc.cpu_ms p -. cpu0 in
  let after = prom c0 in
  let props_end = props c0 in
  let reads = ok_count phase Read in
  step "decision probe";
  (* revisions committed onto the long history, two connections each
     revising its own documents *)
  let probe = tally () in
  let probe_phase =
    let shared = Load.budget ctx.size.decide_probe in
    Load.run ~trace:false ~class_of_cmd
      (List.mapi
         (fun i (c, ch) -> (c, shared (stream_edits ~seed:ctx.seed ~stream:(50 + i) ch)))
         [ (c0, List.filteri (fun j _ -> j mod 2 = 0) chains);
           (c1, List.filteri (fun j _ -> j mod 2 = 1) chains) ])
  in
  Load.merge_into probe (probe_phase.untraced Decide);
  let rss = Proc.rss_peak_mb p in
  Server.Client.close c0;
  Server.Client.close c1;
  Proc.stop p;
  step "in-process reference";
  let lines = Hashtbl.fold (fun l d acc -> (l, d) :: acc) served [] |> List.sort compare in
  let check =
    match List.find_opt (fun (_, d) -> d = None) lines with
    | Some (line, _) -> Error ("two different responses to " ^ line)
    | None -> (
      let bad =
        List.filter (fun (line, d) -> Some (fst (reference history line)) <> d) lines
      in
      match bad with
      | [] ->
        Ok
          (Printf.sprintf "%d distinct lines (%d responses) equal in-process Shell.eval"
             (List.length lines) reads)
      | (l, _) :: _ ->
        Error
          (Printf.sprintf "%d of %d distinct lines differ from Shell.eval, e.g. %s"
             (List.length bad) (List.length lines) l))
  in
  let layers =
    layer_deltas ~before ~after ~decisions:0 ~reads ~ops:reads ~cpu_ms ~phase
    @ [ ("store.props", props_end) ]
    @ List.map
        (fun v ->
          let xs =
            Hashtbl.fold
              (fun line (_, ms) acc -> if Gen.verb_of_line line = v then ms :: acc else acc)
              reference_evals []
          in
          ("core.read_eval_ms." ^ v, if xs = [] then 0. else Stats.median xs))
        read_verbs
  in
  { setup_times; phase; probe = Some (Decide, probe); rss_mb = rss; layers;
    check; checkpoints = 0 }

(* Visibility lags (ms) of the follower's applied decisions, from its
   flight recorder dumped on SIGUSR2: the same per-decision values the
   follower's gkbms_repl_visibility_lag_seconds histogram observes,
   whose power-of-two second buckets cannot resolve sub-second
   quantiles. *)
let follower_lags p wal =
  let path = Obs.Recorder.default_file wal in
  (try Sys.remove path with Sys_error _ -> ());
  Proc.signal p Sys.sigusr2;
  let size () = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> -1 in
  let last = ref (-1) in
  ignore
    (Proc.until ~every:0.05 ~timeout:10. (fun () ->
         let s = size () in
         let stable = s > 0 && s = !last in
         last := s;
         stable));
  (try In_channel.with_open_text path In_channel.input_all with Sys_error _ -> "")
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match Stats.parse_json l with
         | j when Stats.str "kind" j = "applied" -> Some (Stats.num "lag_s" j *. 1e3)
         | _ -> None
         | exception Stats.Bad_json _ -> None)

(* design-session: one connection revising document version chains
   while one browses and queries the same objects, on a leader with one
   follower attached.  In the last round of a run the leader is
   SIGKILLed once the follower has caught up, and both journals are
   recovered and checked. *)
let design_session ctx =
  let setup sub =
    let wl = Filename.concat sub "leader.wal" and wf = Filename.concat sub "follower.wal" in
    let pl, sl, cl = serve ~dir:sub ~name:"leader" [ "--role"; "leader"; "--wal"; wl ] in
    let chains = List.map Gen.chain_of ctx.docs in
    let grown = grow cl ~seed:ctx.seed ~stream:100 chains ctx.size.prehistory in
    let pf, _, cf =
      serve ~dir:sub ~name:"follower"
        [ "--role"; "follower"; "--follow"; sl; "--wal"; wf ]
    in
    let token = control cl "repl token" in
    Scanf.sscanf token " %d %d" (fun e v ->
        ignore (control cf (Printf.sprintf "wait %d %d 60000" e v)));
    (pl, sl, cl, wl, pf, cf, wf, chains, grown)
  in
  let (pl, sl, cl, wl, pf, cf, wf, chains, (grown_lines, grown_decs)), setup_times =
    repeated_setup ~n:ctx.setups ~dir:ctx.dir setup
      (fun (pl, _, cl, _, pf, cf, _, _, _) ->
        Server.Client.close cl;
        Server.Client.close cf;
        Proc.stop pf;
        Proc.stop pl)
  in
  let reader = Proc.connect pl sl in
  let objects = Gen.versions chains in
  let before = prom cl in
  let cpu0 = Proc.cpu_ms pl +. Proc.cpu_ms pf in
  (* the writer commits the round's decisions and the reader sends as
     many reads; the phase ends when both are done.  A reader that
     browsed until the writer was done would make the mix a race: in a
     round where the scheduler favours the writer it sends half the
     reads, and ops_s reads 50% higher. *)
  let writer = Load.budget ctx.work (stream_edits ~seed:ctx.seed ~stream:1 chains) in
  let deck = Gen.read_deck ~seed:ctx.seed ~stream:2 objects ctx.work in
  let dealt = ref 0 in
  let browser () =
    if !dealt = Array.length deck then None
    else begin
      incr dealt;
      Some (read_op deck.(!dealt - 1))
    end
  in
  let conns = [ (cl, writer); (reader, browser) ] in
  step "set-up done; timed phase";
  reset_counts ();
  let phase = Load.run ~trace:ctx.trace ~class_of_cmd conns in
  let cpu_ms = Proc.cpu_ms pl +. Proc.cpu_ms pf -. cpu0 in
  let after = prom cl in
  let props_end = props cl in
  let decisions = ok_count phase Decide and reads = ok_count phase Read in
  let acked_decs = List.sort compare !acked in
  (* the follower must reach the leader's final token *)
  let caught_up =
    if not ctx.last_round then Ok ()
    else begin
      step "follower catch-up";
      let token = control cl "repl token" in
      Scanf.sscanf token " %d %d" (fun e v ->
          match Server.Client.request cf (Printf.sprintf "wait %d %d 60000" e v) with
          | Ok _ -> Ok ()
          | Error e -> Error ("follower did not reach the leader's token: " ^ e))
    end
  in
  let lags = if ctx.trace then follower_lags pf wf else [] in
  let rss = Proc.rss_peak_mb pl +. Proc.rss_peak_mb pf in
  Server.Client.close reader;
  Server.Client.close cl;
  Server.Client.close cf;
  Proc.stop pf;
  if ctx.last_round then (step "kill -9 the leader"; Proc.kill pl) else Proc.stop pl;
  let recovered =
    if ctx.last_round then (
      step "recover both journals";
      Some (time (fun () -> (Gkbms.Durable.recover ~dir:wl (), Gkbms.Durable.recover ~dir:wf ()))))
    else None
  in
  let check =
    match recovered with
    | None -> Ok "journals checked in the last round"
    | Some ((Error e, _), _) | Some ((_, Error e), _) -> Error ("recover: " ^ e)
    | Some ((Ok (leader, _), Ok (follower, _)), _) ->
      let* () = caught_up in
      let expected =
        decision_names ctx.scenario.Gkbms.Scenario.repo
        @ grown_decs
        @ List.map (fun (n, _) -> Printf.sprintf "dec%d" n) acked_decs
      in
      let got = decision_names leader in
      let a = Gkbms.Persist.save_repository_canonical leader
      and b = Gkbms.Persist.save_repository_canonical follower in
      if got <> expected then
        Error
          (Printf.sprintf
             "leader recovered %d decisions, expected %d (seed + set-up + acknowledged)"
             (List.length got) (List.length expected))
      else if not (consistent leader) then Error "recovered knowledge base is inconsistent"
      else if not (String.equal a b) then Error "leader and follower canonical snapshots differ"
      else
        Ok
          (Printf.sprintf
             "follower reached the leader's token; leader killed -9 recovered %d decisions \
              = seed + set-up + %d acknowledged, consistent; canonical snapshots identical \
              (%d bytes)"
             (List.length got) (List.length acked_decs) (String.length a))
  in
  let lag q =
    match lags with
    | [] -> 0.
    | _ -> fst (Stats.percentile (Array.of_list (List.sort compare lags)) q)
  in
  let layers =
    layer_deltas ~before ~after ~decisions ~reads ~ops:(decisions + reads) ~cpu_ms ~phase
    @ [ ("store.props", props_end);
        ("store.props_per_decision",
         Stats.ratio (props_end -. scenario_props ctx.scenario) (float_of_int decisions));
        ("replication.lag_p50_ms", lag 0.5); ("replication.lag_p99_ms", lag 0.99) ]
    @ (match recovered with
      | Some (_, recover_s) -> [ ("durability.recover_s", recover_s /. 2.) ]
      | None -> [])
    @
    if ctx.trace && ctx.last_round then
      [ ("core.decide_eval_ms",
         (step "in-process replay";
          replay_decisions ctx ~prefix:grown_lines
            (take ctx.size.replay_cap (List.map snd acked_decs)))) ]
    else []
  in
  { setup_times; phase; probe = None; rss_mb = rss; layers;
    check; checkpoints = int_of_float (Stats.delta before after "gkbms_checkpoints_total") }

(* name, nominal seconds of timed work a round, set-ups a round, nominal
   timed ops per second.  Every round starts from fresh servers on the
   same seeded inputs and does a fixed amount of timed work (reads in
   browse-history, decisions in design-session): the round's nominal
   seconds at the nominal rate, about what the reference box sustains.
   A run's `--seconds` sets how many rounds it makes, not how much work
   a round does, so a round's history, cache behaviour and checkpoints
   are the same at any run length and on a box of any speed. *)
let workloads =
  [ ("browse-history", 5., 2, 750., browse_history);
    ("design-session", 7.5, 2, 260., design_session) ]

let workload_names = List.map (fun (n, _, _, _, _) -> n) workloads

(* ---- report ------------------------------------------------------------- *)

type report = {
  json : string;  (** the last line *)
  correct : bool;
  guard_ok : bool;
}

(* A percentile that lands on a failed op is infinite: print the
   largest double, which JSON can carry. *)
let json_num x = Printf.sprintf "%.17g" (if Float.is_finite x then x else max_float)

let merge_tallies ts =
  let t = tally () in
  List.iter (Load.merge_into t) ts;
  t

(* Every op of class [c] in a round: timed phase and probe. *)
let round_tally r c =
  merge_tallies
    ([ r.phase.untraced c; r.phase.traced c ]
    @ match r.probe with Some (pc, pt) when pc = c -> [ pt ] | _ -> [])

(* The samples a round measures a class by: its untraced windows, or
   its probe when the load lacks the class. *)
let e2e_tally r c =
  if (r.phase.untraced c).attempted > 0 then r.phase.untraced c
  else match r.probe with Some (pc, pt) when pc = c -> pt | _ -> tally ()

let print_latencies label (t : tally) =
  let a = Stats.sorted t.lat in
  if Array.length a > 0 then
    Printf.printf "  %s latency ms: n=%d %s\n" label (Array.length a)
      (String.concat " "
         (List.map
            (fun q -> Printf.sprintf "p%g=%.3f" (q *. 100.) (fst (Stats.percentile a q)))
            [ 0.5; 0.9; 0.95; 0.98; 0.99; 0.995; 0.999; 1. ]))

let phase_ops t = (t Decide).ok + (t Read).ok
let untraced_ops_s r = Stats.ratio (float_of_int (phase_ops r.phase.untraced)) r.phase.untraced_s

(* One round: prints its latency distributions and ops/s; returns its
   per-layer values (with the traced/untraced ops/s ratio in a traced
   run). *)
let round_summary ~trace r =
  List.iter (fun c -> print_latencies (cls_name c) (e2e_tally r c)) [ Decide; Read ];
  let ops_s = untraced_ops_s r in
  let traced_ops_s = Stats.ratio (float_of_int (phase_ops r.phase.traced)) r.phase.traced_s in
  Printf.printf "  ops_s=%.2f%s\n" ops_s
    (if trace then Printf.sprintf " traced ops_s=%.2f" traced_ops_s else "");
  Printf.printf "  rss_peak_mb=%.1f (VmHWM summed over the servers)\n" r.rss_mb;
  if trace then ("obs.trace_overhead", Stats.ratio traced_ops_s ops_s) :: r.layers
  else r.layers

(* End-to-end values of a run.  Latency percentiles are taken over the
   samples of every round pooled, so that a run's p99 rests on as many
   samples beyond it as all its rounds have together; throughput and
   memory are the median over rounds, so that one round caught by a
   slow phase of the shared box does not move them; set-up time is the
   median of every set-up.  Each round's p99 is printed with its sample
   count and the samples beyond it, and so is the pooled p99 that the
   metric reports; [false] if the pooled p99 has fewer than 10 samples
   beyond it (the tail guard). *)
let run_e2e rounds =
  let guard_ok = ref true in
  let over_rounds f = Stats.median (List.map f rounds) in
  let pooled c = Stats.sorted (merge_tallies (List.map (fun r -> e2e_tally r c) rounds)).lat in
  let p50 c = fst (Stats.percentile (pooled c) 0.5) in
  let p99 c =
    List.iteri
      (fun i r ->
        let a = Stats.sorted (e2e_tally r c).lat in
        let v, beyond = Stats.percentile a 0.99 in
        Printf.printf "round %d %s p99=%.3f n=%d beyond=%d\n" (i + 1) (cls_name c) v
          (Array.length a) beyond)
      rounds;
    let v, beyond = Stats.percentile (pooled c) 0.99 in
    Printf.printf "run %s p99=%.3f n=%d beyond=%d\n" (cls_name c) v
      (Array.length (pooled c)) beyond;
    if beyond < 10 then begin
      guard_ok := false;
      Printf.printf "tail guard: fewer than 10 samples beyond this p99\n"
    end;
    v
  in
  let e2e =
    [ ("setup_s", Stats.median (List.concat_map (fun r -> r.setup_times) rounds));
      ("ops_s", over_rounds untraced_ops_s);
      ("decide_p50_ms", p50 Decide);
      ("decide_p99_ms", p99 Decide);
      ("read_p50_ms", p50 Read);
      ("read_p99_ms", p99 Read);
      ("rss_peak_mb", over_rounds (fun r -> r.rss_mb)) ]
  in
  (e2e, !guard_ok)

let report ~trace ~guard rounds =
  let per_round =
    List.mapi
      (fun i r ->
        Printf.printf "round %d: setup %s s; checkpoints %d; check: %s\n" (i + 1)
          (String.concat " " (List.map (Printf.sprintf "%.4f") r.setup_times))
          r.checkpoints
          (match r.check with Ok m -> m ^ " OK" | Error m -> m ^ " FAILED");
        round_summary ~trace r)
      rounds
  in
  let e2e, guard_ok = run_e2e rounds in
  let shown =
    if trace then
      (* per-layer values: the median over the rounds that measured
         them; 0 where none did *)
      List.map
        (fun (name, unit) ->
          match List.filter_map (List.assoc_opt name) per_round with
          | [] -> (name, 0., unit)
          | xs -> (name, Stats.median xs, unit))
        per_layer
    else List.map (fun (name, unit) -> (name, List.assoc name e2e, unit)) end_to_end
  in
  let totals =
    List.map
      (fun c -> (c, merge_tallies (List.map (fun r -> round_tally r c) rounds)))
      [ Decide; Read ]
  in
  List.iter
    (fun (c, t) ->
      Printf.printf "ops %-6s attempted=%d ok=%d failed=%d refused=%d error=%d\n" (cls_name c)
        t.attempted t.ok t.failed t.refused t.errors)
    totals;
  Option.iter (fun e -> Printf.printf "first failure: %s\n" e) (Atomic.get first_error);
  let attempted = List.fold_left (fun a (_, t) -> a + t.attempted) 0 totals in
  let failed = List.fold_left (fun a (_, t) -> a + bad t) 0 totals in
  Printf.printf "failed_frac = %.6f (%d of %d)\n"
    (Stats.ratio (float_of_int failed) (float_of_int attempted)) failed attempted;
  List.iter
    (fun (n, v, u) -> Printf.printf "metric %s = %.6g %s\n" n v u)
    shown;
  let correct = List.for_all (fun r -> Result.is_ok r.check) rounds in
  Printf.printf "check: %s\n" (if correct then "OK" else "FAILED");
  let json =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      correct attempted failed
      (String.concat ", "
         (List.map
            (fun (n, v, u) ->
              Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_num v) u)
            shown))
  in
  { json; correct; guard_ok = guard_ok || trace || not guard }

(* ---- entry points ------------------------------------------------------- *)

let flush_policy =
  "flush policy: the journal is flushed to the OS before each ack, no fsync \
   (serve --wal at shipped defaults: per-decision commit, no group commit, \
   thread per connection, --domains 1)"

(* Run one workload; the report, or an exception.  Children are reaped
   and the scratch directory removed on every path. *)
let run_workload ~name ~seed ~seconds ~trace ~size =
  let dir = Proc.scratch_dir () in
  Fun.protect
    ~finally:Proc.cleanup
    (fun () ->
      Printf.printf "gkbench %s seed=%d seconds=%g trace=%d\n%!" name seed seconds
        (if trace then 1 else 0);
      environment dir;
      print_endline flush_policy;
      let _, round_s, setups, rate, round =
        List.find (fun (n, _, _, _, _) -> n = name) workloads
      in
      let rounds, setups, work =
        if size.full_size then
          (max 1 (int_of_float (seconds /. round_s)), setups, int_of_float (round_s *. rate))
        else (1, 1, int_of_float (seconds *. rate))
      in
      let scenario =
        match Gen.scenario () with Ok st -> st | Error e -> failwith e
      in
      let docs = Gen.documents scenario.Gkbms.Scenario.repo in
      step (Printf.sprintf "%d documents: %s" (List.length docs) (String.concat " " docs));
      let total0, steal0 = Proc.cpu_ticks () in
      let results =
        List.init rounds (fun k ->
            let rdir = Filename.concat dir (Printf.sprintf "round%d" (k + 1)) in
            Unix.mkdir rdir 0o755;
            step (Printf.sprintf "round %d of %d" (k + 1) rounds);
            let r =
              round
                { seed; work; last_round = k = rounds - 1; setups; trace; size;
                  dir = rdir; scenario; docs }
            in
            Proc.rm_rf rdir;
            r)
      in
      let total1, steal1 = Proc.cpu_ticks () in
      Printf.printf "env: cpu steal during the rounds %.1f%%\n"
        (100. *. Stats.ratio (steal1 -. steal0) (total1 -. total0));
      report ~trace ~guard:size.full_size results)

(* End the run after [limit] seconds, or on SIGTERM/SIGINT, stopping
   every server and removing the scratch directory first. *)
let watchdog limit =
  let stop why code =
    prerr_endline ("gkbench: " ^ why ^ "; stopping servers");
    Proc.cleanup ();
    Unix._exit code
  in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> stop "interrupted" 130)))
    [ Sys.sigterm; Sys.sigint ];
  ignore
    (Thread.create
       (fun () ->
         Thread.delay limit;
         stop "run exceeded its time limit" 3)
       ())

(* ---- self-test ------------------------------------------------------------ *)

let selftest () =
  let failures = ref 0 in
  let expect what ok =
    Printf.printf "selftest %s: %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  (* same seed, byte-identical request streams; another seed, another stream *)
  let docs =
    match Gen.scenario () with
    | Ok st -> Gen.documents st.Gkbms.Scenario.repo
    | Error e -> failwith e
  in
  let stream seed =
    let chains = Gen.deal 2 docs in
    let edits = Gen.edits ~seed ~stream:1 (List.hd chains) in
    let e = List.init 2000 (fun _ -> (edits ()).Gen.line) in
    let objects = Gen.versions (List.concat chains) in
    let deck = Gen.read_deck ~seed ~stream:2 objects 2000 in
    String.concat "\n" (e @ Array.to_list deck)
  in
  expect "documents to revise" (List.length docs >= 4);
  expect "same seed, identical request stream" (String.equal (stream 7) (stream 7));
  expect "other seed, other request stream" (not (String.equal (stream 7) (stream 8)));
  (* the names BENCHMARK.json declares are the ones printed *)
  let declared key =
    try
      In_channel.with_open_text "BENCHMARK.json" In_channel.input_all
      |> Stats.parse_json |> Stats.arr key
      |> List.map (fun m -> (Stats.str "name" m, Stats.str "unit" m))
    with Sys_error _ -> []
  in
  expect "BENCHMARK.json end_to_end = catalogue" (declared "end_to_end" = end_to_end);
  expect "BENCHMARK.json per_layer = catalogue" (declared "per_layer" = per_layer);
  (* a tiny run of each workload prints every metric with its unit *)
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let r = run_workload ~name ~seed:1 ~seconds:1. ~trace ~size:tiny in
          let catalogue = if trace then per_layer else end_to_end in
          let metrics = Stats.field "metrics" (Stats.parse_json r.json) in
          let has (n, u) =
            match Option.bind metrics (Stats.field n) with
            | Some m -> (
              Stats.str "unit" m = u
              && match Stats.field "value" m with Some (Stats.Num _) -> true | _ -> false)
            | None -> false
          in
          expect
            (Printf.sprintf "%s trace=%b: correct, every metric with its unit" name trace)
            (r.correct && List.for_all has catalogue))
        [ false; true ])
    workload_names;
  if !failures > 0 then (
    Printf.printf "selftest: %d failure(s)\n" !failures;
    exit 1)
  else print_endline "selftest: all passed"

(* ---- main ----------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: gkbench --workload browse-history|design-session \
     --seed N --seconds S --trace 0|1\n       gkbench selftest";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "selftest" ] -> selftest ()
  | _ ->
    let rec parse acc = function
      | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let kv = parse [] args in
    let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
    let name = get "workload" in
    if not (List.mem name workload_names) then usage ();
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let seed = int "seed" and seconds = int "seconds" in
    let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
    if seconds < 1 then usage ();
    watchdog 170.;
    match
      run_workload ~name ~seed ~seconds:(float_of_int seconds) ~trace ~size:full
    with
    | r ->
      print_endline r.json;
      exit (if r.correct && r.guard_ok then 0 else 1)
    | exception e ->
      Printf.eprintf "gkbench: %s\n" (Printexc.to_string e);
      exit 1
