(* Streaming reconstruction: frontier/watermark semantics, equivalence with
   the batch pipeline, chunk-size invariance, checkpoint/resume, the
   segmented reader, and the incremental global-flow merge. *)

let scenario = lazy (Scenario.Citysee.run Scenario.Citysee.tiny)

let lossless = lazy (Scenario.Citysee.collected (Lazy.force scenario))

let sink () = (Lazy.force scenario).sink

let lossy_collected p seed =
  let rng = Prelude.Rng.create ~seed:(Int64.of_int seed) in
  Logsys.Collected.lossify (Logsys.Loss_model.uniform p) rng
    (Lazy.force lossless)

(* A flow's observable identity: nan-safe (Flow.to_string prints items;
   stats are plain ints), unlike polymorphic equality on the payload
   records. *)
let flow_sig (f : Refill.Flow.t) =
  (f.origin, f.seq, Refill.Flow.to_string f, f.stats)

let batch_flows collected =
  let acc = ref [] in
  Refill.Reconstruct.run collected ~sink:(sink ()) ~emit:(fun f ->
      acc := f :: !acc);
  List.rev !acc

(* The equivalence properties run with an unbounded late-fragment
   retention (the pre-sharding semantics); bounded retention has its own
   regression tests below. *)
let test_config ?(watermark = max_int / 2) ?(shards = 1) () =
  {
    Refill.Config.default with
    watermark;
    shards;
    late_retention = Some max_int;
  }

(* Stream [collected]'s arrival-order trace in [chunk]-sized segments.
   [chunk] is clamped to >= 1: qcheck shrinkers can step outside the
   declared range, and a zero chunk would never advance the feed loop. *)
let stream_all ?watermark ~chunk collected =
  let chunk = max 1 chunk in
  let ordered = Logsys.Collected.merged_by_time collected in
  let acc = ref [] in
  let config = test_config ?watermark () in
  let t =
    Refill.Stream.create ~config ~sink:(sink ()) ~emit:(fun e ->
        acc := e :: !acc)
      ()
  in
  let n = Array.length ordered in
  let i = ref 0 in
  while !i < n do
    let len = min chunk (n - !i) in
    Refill.Stream.feed t (Array.sub ordered !i len);
    i := !i + len
  done;
  let s = Refill.Stream.finish t in
  (List.rev !acc, s)

(* Same, through the sharded layer. *)
let sharded_stream_all ?watermark ~shards ~chunk collected =
  let chunk = max 1 chunk in
  let shards = max 1 shards in
  let ordered = Logsys.Collected.merged_by_time collected in
  let acc = ref [] in
  let config = test_config ?watermark ~shards () in
  let t =
    Refill.Stream.Sharded.create ~config ~sink:(sink ()) ~emit:(fun e ->
        acc := e :: !acc)
      ()
  in
  let n = Array.length ordered in
  let i = ref 0 in
  while !i < n do
    let len = min chunk (n - !i) in
    Refill.Stream.Sharded.feed t (Array.sub ordered !i len);
    i := !i + len
  done;
  let s = Refill.Stream.Sharded.finish t in
  (List.rev !acc, s)

let emission_sigs es =
  List.map
    (fun (e : Refill.Stream.emitted) -> (flow_sig e.flow, e.outcome))
    es

let sort_by_key l =
  List.stable_sort
    (fun ((o1, s1, _, _), _) ((o2, s2, _, _), _) -> compare (o1, s1) (o2, s2))
    l

(* -- Pinned acceptance: lossless tiny rung ------------------------------- *)

let lossless_stream_equals_batch () =
  let collected = Lazy.force lossless in
  let total = Logsys.Collected.total collected in
  let watermark = max 1 (total / 20) in
  let emitted, s = stream_all ~watermark ~chunk:512 collected in
  Alcotest.(check int) "every record consumed" total s.events;
  Alcotest.(check int) "no late fragments on lossless input" 0
    s.late_fragments;
  Alcotest.(check int) "all flows complete" s.flows s.complete;
  Alcotest.(check bool)
    (Printf.sprintf "peak frontier %d < 10%% of %d records"
       s.peak_frontier_events total)
    true
    (s.peak_frontier_events * 10 < total);
  let batch = List.map flow_sig (batch_flows collected) in
  let streamed =
    List.map fst (sort_by_key (emission_sigs emitted))
  in
  Alcotest.(check int) "one flow per packet" (List.length batch)
    (List.length streamed);
  List.iter2
    (fun (bo, bs, bstr, bstats) (so, ss, sstr, sstats) ->
      Alcotest.(check (pair int int)) "key" (bo, bs) (so, ss);
      Alcotest.(check string) "flow" bstr sstr;
      Alcotest.(check bool) "stats" true (bstats = sstats))
    batch streamed

(* -- Chunk-size invariance ------------------------------------------------ *)

let chunk_invariance =
  QCheck.Test.make ~name:"stream emissions independent of chunk size"
    ~count:15
    QCheck.(int_range 1 777)
    (fun chunk ->
      let collected = Lazy.force lossless in
      let watermark = max 1 (Logsys.Collected.total collected / 10) in
      let reference, _ = stream_all ~watermark ~chunk:256 collected in
      let got, _ = stream_all ~watermark ~chunk collected in
      emission_sigs got = emission_sigs reference)

(* -- Sharded equivalence --------------------------------------------------- *)

(* The tentpole pin: at any shard count and chunking, the sharded layer's
   emitted flow sequence is byte-identical to the single-domain stream —
   same flows, same outcomes, same order — and the summary matches up to
   peak_frontier_events (a sum of per-shard peaks, an upper bound) and
   segments (a feed-call count, which differs when the chunking does). *)
let summary_matches (ss : Refill.Stream.summary) (sd : Refill.Stream.summary)
    =
  {
    ss with
    peak_frontier_events = sd.peak_frontier_events;
    segments = sd.segments;
  }
  = sd

let sharded_identical_lossless =
  QCheck.Test.make
    ~name:"sharded stream byte-identical to single-domain (lossless)"
    ~count:6
    QCheck.(pair (int_range 2 5) (int_range 1 777))
    (fun (shards, chunk) ->
      let collected = Lazy.force lossless in
      let watermark = max 1 (Logsys.Collected.total collected / 10) in
      let single, sd = stream_all ~watermark ~chunk:256 collected in
      let sharded, ss = sharded_stream_all ~watermark ~shards ~chunk collected in
      emission_sigs sharded = emission_sigs single && summary_matches ss sd)

let sharded_identical_lossy =
  QCheck.Test.make
    ~name:"sharded stream byte-identical to single-domain (lossy)" ~count:6
    QCheck.(triple (int_range 2 5) (int_range 0 1000) (int_range 1 10_000))
    (fun (shards, loss_milli, seed) ->
      let p = float_of_int loss_milli /. 2000. in
      let collected = lossy_collected p seed in
      let single, sd = stream_all ~watermark:150 ~chunk:97 collected in
      let sharded, ss =
        sharded_stream_all ~watermark:150 ~shards ~chunk:131 collected
      in
      emission_sigs sharded = emission_sigs single && summary_matches ss sd)

(* -- Lossy inputs --------------------------------------------------------- *)

(* Under loss and an aggressive watermark a packet may be split across
   evictions.  The one-directional guarantee: any key whose streamed flows
   differ from its batch flow has an Incomplete flow among them, and no
   record is dropped on the floor. *)
let lossy_divergence_is_flagged =
  QCheck.Test.make ~name:"lossy streaming divergence is flagged Incomplete"
    ~count:10
    QCheck.(pair (int_range 0 1000) (int_range 1 10_000))
    (fun (loss_milli, seed) ->
      let p = float_of_int loss_milli /. 2000. in
      let collected = lossy_collected p seed in
      let total = Logsys.Collected.total collected in
      let emitted, s = stream_all ~watermark:150 ~chunk:97 collected in
      let consumed =
        List.fold_left
          (fun acc (e : Refill.Stream.emitted) ->
            acc + e.flow.stats.emitted_logged + e.flow.stats.skipped)
          0 emitted
      in
      if consumed <> total then
        QCheck.Test.fail_reportf "record conservation: %d fed, %d consumed"
          total consumed;
      if s.events <> total then QCheck.Test.fail_report "events <> total";
      let by_key = Hashtbl.create 64 in
      List.iter
        (fun (e : Refill.Stream.emitted) ->
          let k = (e.flow.origin, e.flow.seq) in
          Hashtbl.replace by_key k
            (e :: Option.value ~default:[] (Hashtbl.find_opt by_key k)))
        emitted;
      List.for_all
        (fun (b : Refill.Flow.t) ->
          let streamed =
            List.rev
              (Option.value ~default:[]
                 (Hashtbl.find_opt by_key (b.origin, b.seq)))
          in
          match streamed with
          | [ one ] when flow_sig one.flow = flow_sig b -> true
          | parts ->
              (* Divergence from batch: must carry an Incomplete flag. *)
              List.exists
                (fun (e : Refill.Stream.emitted) ->
                  e.outcome = Refill.Stream.Incomplete)
                parts)
        (batch_flows collected))

(* -- Checkpoint / resume -------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "refill-stream" ".ckpt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let checkpoint_resume_identical () =
  let collected = lossy_collected 0.25 42 in
  let ordered = Logsys.Collected.merged_by_time collected in
  let n = Array.length ordered in
  let config = test_config ~watermark:150 () in
  let run_split cut =
    with_temp_file @@ fun path ->
    let acc = ref [] in
    let t1 =
      Refill.Stream.create ~config ~sink:(sink ()) ~emit:(fun e ->
          acc := e :: !acc)
        ()
    in
    Refill.Stream.feed t1 (Array.sub ordered 0 cut);
    (match Refill.Stream.checkpoint_file t1 path with
    | Ok () -> ()
    | Error e -> Alcotest.failf "checkpoint: %s" (Refill.Error.message e));
    (* The abandoned first stream must not influence the resumed one. *)
    let t2 =
      match
        Refill.Stream.resume_file ~config path ~sink:(sink ())
          ~emit:(fun e -> acc := e :: !acc)
      with
      | Ok t -> t
      | Error e -> Alcotest.failf "resume: %s" (Refill.Error.message e)
    in
    Alcotest.(check int) "resume position" cut (Refill.Stream.processed t2);
    Refill.Stream.feed t2 (Array.sub ordered cut (n - cut));
    let s = Refill.Stream.finish t2 in
    (List.rev !acc, s)
  in
  let direct, sd = stream_all ~watermark:150 ~chunk:max_int collected in
  List.iter
    (fun cut ->
      let resumed, sr = run_split cut in
      Alcotest.(check bool)
        (Printf.sprintf "emissions at cut %d" cut)
        true
        (emission_sigs resumed = emission_sigs direct);
      Alcotest.(check bool)
        (Printf.sprintf "summary at cut %d" cut)
        true
        ({ sr with segments = sd.segments } = sd))
    [ 1; n / 3; n / 2; n - 1 ]

(* v2 checkpoints cut anywhere — including mid-segment — resume into any
   shard count (sharded -> sharded, sharded -> single, single -> sharded)
   with byte-identical emissions. *)
let sharded_checkpoint_resume_identical () =
  let collected = lossy_collected 0.25 42 in
  let ordered = Logsys.Collected.merged_by_time collected in
  let n = Array.length ordered in
  let direct, _ = stream_all ~watermark:150 ~chunk:97 collected in
  let feed_chunked feed t lo hi =
    let i = ref lo in
    while !i < hi do
      let len = min 97 (hi - !i) in
      feed t (Array.sub ordered !i len);
      i := !i + len
    done
  in
  let run_split ~cut ~shards_before ~shards_after =
    with_temp_file @@ fun path ->
    let acc = ref [] in
    let emit e = acc := e :: !acc in
    let sink = sink () in
    (if shards_before = 1 then begin
       let t =
         Refill.Stream.create ~config:(test_config ~watermark:150 ()) ~sink
           ~emit ()
       in
       feed_chunked Refill.Stream.feed t 0 cut;
       match Refill.Stream.checkpoint_file t path with
       | Ok () -> ()
       | Error e -> Alcotest.failf "checkpoint: %s" (Refill.Error.message e)
     end
     else begin
       let t =
         Refill.Stream.Sharded.create
           ~config:(test_config ~watermark:150 ~shards:shards_before ())
           ~sink ~emit ()
       in
       feed_chunked Refill.Stream.Sharded.feed t 0 cut;
       match Refill.Stream.Sharded.checkpoint_file t path with
       | Ok () -> ()
       | Error e -> Alcotest.failf "checkpoint: %s" (Refill.Error.message e)
     end);
    (* Only emissions from the resumed stream from here on: the abandoned
       first stream's frontier must not leak. *)
    (if shards_after = 1 then begin
       match
         Refill.Stream.resume_file
           ~config:(test_config ~watermark:150 ())
           path ~sink ~emit
       with
       | Error e -> Alcotest.failf "resume: %s" (Refill.Error.message e)
       | Ok t ->
           Alcotest.(check int)
             "resume position" cut
             (Refill.Stream.processed t);
           feed_chunked Refill.Stream.feed t cut n;
           ignore (Refill.Stream.finish t)
     end
     else begin
       match
         Refill.Stream.Sharded.resume_file
           ~config:(test_config ~watermark:150 ~shards:shards_after ())
           path ~sink ~emit
       with
       | Error e -> Alcotest.failf "resume: %s" (Refill.Error.message e)
       | Ok t ->
           Alcotest.(check int)
             "resume position" cut
             (Refill.Stream.Sharded.processed t);
           feed_chunked Refill.Stream.Sharded.feed t cut n;
           ignore (Refill.Stream.Sharded.finish t)
     end);
    List.rev !acc
  in
  List.iter
    (fun (cut, shards_before, shards_after) ->
      let resumed = run_split ~cut ~shards_before ~shards_after in
      Alcotest.(check bool)
        (Printf.sprintf "emissions at cut %d (%d -> %d shards)" cut
           shards_before shards_after)
        true
        (emission_sigs resumed = emission_sigs direct))
    [
      (* n/2 - 13 and n - 40 land mid-segment for the 97-record chunks *)
      (1, 3, 3);
      (n / 3, 3, 1);
      ((n / 2) - 13, 1, 4);
      ((n / 2) - 13, 4, 2);
      (n - 40, 2, 5);
    ]

(* Regression (config-conflict resume): before the fix, resume took the
   semantic flags from the caller's config, so a checkpoint written with
   different ablation knobs silently reconstructed under new semantics. *)
let resume_config_conflict_rejected () =
  with_temp_file @@ fun path ->
  let config = { (test_config ~watermark:150 ()) with use_inter = false } in
  let collected = lossy_collected 0.25 42 in
  let ordered = Logsys.Collected.merged_by_time collected in
  let t = Refill.Stream.create ~config ~sink:(sink ()) ~emit:ignore () in
  Refill.Stream.feed t (Array.sub ordered 0 500);
  (match Refill.Stream.checkpoint_file t path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checkpoint: %s" (Refill.Error.message e));
  (* Conflicting explicit config: rejected. *)
  (match
     Refill.Stream.resume_file
       ~config:(test_config ~watermark:150 ())
       path ~sink:(sink ()) ~emit:ignore
   with
  | Error (Refill.Error.Bad_checkpoint _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Refill.Error.message e)
  | Ok _ -> Alcotest.fail "conflicting config accepted");
  (* Matching explicit config, and no config at all: both fine; the
     checkpoint's flags win when none is passed. *)
  (match Refill.Stream.resume_file ~config path ~sink:(sink ()) ~emit:ignore with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "matching config rejected: %s" (Refill.Error.message e));
  (match Refill.Stream.resume_file path ~sink:(sink ()) ~emit:ignore with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "absent config rejected: %s" (Refill.Error.message e));
  (* Sharded resume enforces the same rule. *)
  match
    Refill.Stream.Sharded.resume_file
      ~config:(test_config ~watermark:150 ~shards:3 ())
      path ~sink:(sink ()) ~emit:ignore
  with
  | Error (Refill.Error.Bad_checkpoint _) -> ()
  | Error e -> Alcotest.failf "wrong sharded error: %s" (Refill.Error.message e)
  | Ok _ -> Alcotest.fail "sharded conflicting config accepted"

(* Regression (malformed headers): before the fix, resume accepted
   negative counters and a peak-frontier below the restored frontier,
   building a stream whose drain limit was garbage. *)
let resume_rejects_nonsense_headers () =
  let record_line =
    let ordered =
      Logsys.Collected.merged_by_time (Lazy.force lossless)
    in
    Logsys.Log_io.record_to_line_exact ordered.(0)
  in
  let v1 ~processed ~watermark ~peak ~body =
    Printf.sprintf
      "# refill-stream-ckpt v1\n\
       # processed %d\n\
       # watermark %d\n\
       # segments 1\n\
       # flows 0\n\
       # complete 0\n\
       # incomplete 0\n\
       # evictions 0\n\
       # late-fragments 0\n\
       # peak-frontier %d\n\
       %s"
      processed watermark peak body
  in
  let v2_header =
    "# refill-stream-ckpt v2\n\
     # shards 1\n\
     # use-intra 1\n\
     # use-inter 1\n\
     # provenance 0\n\
     # watermark 100\n\
     # retention 400\n\
     # segments 1\n"
  in
  let cases =
    [
      ("negative processed", v1 ~processed:(-5) ~watermark:100 ~peak:0 ~body:"");
      ("negative watermark", v1 ~processed:10 ~watermark:(-1) ~peak:0 ~body:"");
      ("zero watermark", v1 ~processed:10 ~watermark:0 ~peak:0 ~body:"");
      ( "peak below restored frontier",
        v1 ~processed:10 ~watermark:100 ~peak:0
          ~body:(Printf.sprintf "b 3 7 5 0 1\n%s\n" record_line) );
      ( "negative clock",
        v2_header ^ "# clock -3\n# shard 0\n# processed -3\n# flows 0\n\
                     # complete 0\n# incomplete 0\n# evictions 0\n\
                     # late-fragments 0\n# forgotten 0\n# peak-frontier 0\n" );
      ( "flows disagree with outcomes",
        v2_header ^ "# clock 10\n# shard 0\n# processed 10\n# flows 3\n\
                     # complete 1\n# incomplete 1\n# evictions 0\n\
                     # late-fragments 0\n# forgotten 0\n# peak-frontier 0\n" );
      ( "evicted trigger out of range",
        v2_header ^ "# clock 10\n# shard 0\n# processed 10\n# flows 0\n\
                     # complete 0\n# incomplete 0\n# evictions 0\n\
                     # late-fragments 0\n# forgotten 0\n# peak-frontier 0\n\
                     e 3 7 99\n" );
      ( "shard totals disagree with clock",
        v2_header ^ "# clock 10\n# shard 0\n# processed 7\n# flows 0\n\
                     # complete 0\n# incomplete 0\n# evictions 0\n\
                     # late-fragments 0\n# forgotten 0\n# peak-frontier 0\n" );
      (* Integers are plain decimal: int_of_string would read these as
         16, 3 and 10 and resume from a state nobody wrote. *)
      ( "hex watermark",
        "# refill-stream-ckpt v1\n# processed 10\n# watermark 0x10\n\
         # segments 1\n# flows 0\n# complete 0\n# incomplete 0\n\
         # evictions 0\n# late-fragments 0\n# peak-frontier 0\n" );
      ( "hex evicted key",
        v2_header ^ "# clock 10\n# shard 0\n# processed 10\n# flows 0\n\
                     # complete 0\n# incomplete 0\n# evictions 0\n\
                     # late-fragments 0\n# forgotten 0\n# peak-frontier 0\n\
                     e 0x3 7 5\n" );
      ( "underscored buffer count",
        v1 ~processed:10 ~watermark:100 ~peak:10
          ~body:(Printf.sprintf "b 3 7 5 0 0_1\n%s\n" record_line) );
    ]
  in
  List.iter
    (fun (name, text) ->
      with_temp_file @@ fun path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      match
        Refill.Stream.resume_file path ~sink:(sink ()) ~emit:ignore
      with
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error (Refill.Error.Bad_checkpoint _) -> ()
      | Error e ->
          Alcotest.failf "%s: wrong error: %s" name (Refill.Error.message e))
    cases

(* A well-formed v1 checkpoint still resumes (flags come from the caller's
   config; evicted keys restore with trigger = processed). *)
let v1_checkpoint_still_readable () =
  with_temp_file @@ fun path ->
  let oc = open_out path in
  output_string oc
    "# refill-stream-ckpt v1\n\
     # processed 10\n\
     # watermark 100\n\
     # segments 2\n\
     # flows 1\n\
     # complete 1\n\
     # incomplete 0\n\
     # evictions 1\n\
     # late-fragments 0\n\
     # peak-frontier 4\n\
     e 3 7\n";
  close_out oc;
  match Refill.Stream.resume_file path ~sink:(sink ()) ~emit:ignore with
  | Error e -> Alcotest.failf "v1 rejected: %s" (Refill.Error.message e)
  | Ok t ->
      Alcotest.(check int) "position" 10 (Refill.Stream.processed t);
      let s = Refill.Stream.summary t in
      Alcotest.(check int) "flows" 1 s.flows;
      Alcotest.(check int) "evictions" 1 s.evictions;
      Alcotest.(check int) "forgotten" 0 s.forgotten_keys

(* Regression (bounded evicted table): before the fix, every evicted key
   was remembered for the life of the stream.  Now a key is forgotten once
   the clock passes its eviction trigger by [late_retention] records —
   counted in [forgotten_keys] — after which a straggler is NOT flagged as
   a late fragment.  The forgetting rule is a function of global positions
   only, so the sharded layer counts identically. *)
let evicted_table_is_bounded () =
  let base = (Logsys.Collected.merged_by_time (Lazy.force lossless)).(0) in
  let rec_ ~origin ~seq =
    { base with Logsys.Record.kind = Gen; node = origin; origin; pkt_seq = seq }
  in
  (* Key (1,1) at position 1; unique filler keys push the clock.  With
     watermark 10 / retention 30: (1,1) evicts at trigger 11; its return
     at position 30 is within 11 + 30 -> a late fragment (re-evicted at
     trigger 40); its return at position 151 is far past 40 + 30 -> the
     key has been forgotten, so this is a fresh packet, not a late
     fragment.  Pre-fix, the table never forgot and late_fragments would
     read 2. *)
  let filler = Array.init 200 (fun i -> rec_ ~origin:2 ~seq:(1000 + i)) in
  let run feed finish t =
    feed t [| rec_ ~origin:1 ~seq:1 |];
    feed t (Array.sub filler 0 28);
    feed t [| rec_ ~origin:1 ~seq:1 |];
    feed t (Array.sub filler 28 120);
    feed t [| rec_ ~origin:1 ~seq:1 |];
    feed t (Array.sub filler 148 52);
    finish t
  in
  let config =
    { (test_config ~watermark:10 ()) with late_retention = Some 30 }
  in
  let record_emissions acc (e : Refill.Stream.emitted) =
    acc :=
      (e.flow.origin, e.flow.seq, e.outcome = Refill.Stream.Incomplete)
      :: !acc
  in
  let single_acc = ref [] in
  let ss =
    run Refill.Stream.feed Refill.Stream.finish
      (Refill.Stream.create ~config ~sink:(sink ())
         ~emit:(record_emissions single_acc) ())
  in
  Alcotest.(check int) "single: one late fragment" 1 ss.late_fragments;
  Alcotest.(check bool) "single: forgotten keys counted" true
    (ss.forgotten_keys >= 1);
  let sharded_acc = ref [] in
  let sh =
    run Refill.Stream.Sharded.feed Refill.Stream.Sharded.finish
      (Refill.Stream.Sharded.create
         ~config:{ config with shards = 3 }
         ~sink:(sink ())
         ~emit:(record_emissions sharded_acc) ())
  in
  (* Forgetting is a function of global positions only: the sharded layer
     sees the same late fragments, the same forgotten count, and the same
     emission sequence. *)
  Alcotest.(check int) "sharded: late fragments agree" ss.late_fragments
    sh.late_fragments;
  Alcotest.(check int) "sharded: forgotten counts agree" ss.forgotten_keys
    sh.forgotten_keys;
  Alcotest.(check (list (triple int int bool))) "emission sequences agree"
    (List.rev !single_acc) (List.rev !sharded_acc)

let resume_rejects_garbage () =
  with_temp_file @@ fun path ->
  let oc = open_out path in
  output_string oc "not a checkpoint\n";
  close_out oc;
  match
    Refill.Stream.resume_file path ~sink:(sink ()) ~emit:(fun _ -> ())
  with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error (Refill.Error.Bad_checkpoint _ as e) ->
      Alcotest.(check int) "exit code" 1 (Refill.Error.exit_code e)
  | Error e -> Alcotest.failf "wrong error: %s" (Refill.Error.message e)

let feed_after_finish_raises () =
  let t = Refill.Stream.create ~sink:0 ~emit:(fun _ -> ()) () in
  ignore (Refill.Stream.finish t);
  Alcotest.check_raises "feed after finish"
    (Invalid_argument "Stream.feed: stream already finished") (fun () ->
      Refill.Stream.feed t [||])

(* -- Segmented reader ----------------------------------------------------- *)

(* Ordinary dump lines carry %.6f times, so reloaded records match the
   originals only up to that precision (exact lines are covered
   separately). *)
let record_close (a : Logsys.Record.t) (b : Logsys.Record.t) =
  a.node = b.node
  && Logsys.Record.kind_equal a.kind b.kind
  && a.origin = b.origin && a.pkt_seq = b.pkt_seq && a.gseq = b.gseq
  && ((Float.is_nan a.true_time && Float.is_nan b.true_time)
     || Float.abs (a.true_time -. b.true_time) < 1e-5)

let seg_reader_roundtrip () =
  let collected = Lazy.force lossless in
  let ordered = Logsys.Collected.merged_by_time collected in
  with_temp_file @@ fun path ->
  Logsys.Log_io.save_file path ~sink:(sink ()) ~time_order:true collected;
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let r = Logsys.Log_io.Seg.of_channel ic in
  Alcotest.(check int) "n_nodes"
    (Logsys.Collected.n_nodes collected)
    (Logsys.Log_io.Seg.n_nodes r);
  Alcotest.(check int) "sink" (sink ()) (Logsys.Log_io.Seg.sink r);
  let acc = ref [] in
  let rec loop () =
    match Logsys.Log_io.Seg.next r ~max_records:61 with
    | None -> ()
    | Some seg ->
        Alcotest.(check bool) "non-empty segment" true (Array.length seg > 0);
        acc := seg :: !acc;
        loop ()
  in
  loop ();
  let got = Array.concat (List.rev !acc) in
  Alcotest.(check int) "record count" (Array.length ordered)
    (Array.length got);
  Array.iteri
    (fun i r ->
      if not (record_close ordered.(i) r) then
        Alcotest.failf "record %d differs: %s vs %s" i
          (Logsys.Record.to_string ordered.(i))
          (Logsys.Record.to_string r))
    got

let seg_skip_fast_forwards () =
  let collected = Lazy.force lossless in
  let ordered = Logsys.Collected.merged_by_time collected in
  with_temp_file @@ fun path ->
  Logsys.Log_io.save_file path ~sink:(sink ()) ~time_order:true collected;
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let r = Logsys.Log_io.Seg.of_channel ic in
  Alcotest.(check int) "read starts at 0" 0 (Logsys.Log_io.Seg.read r);
  Alcotest.(check int) "skipped" 100 (Logsys.Log_io.Seg.skip r 100);
  Alcotest.(check int) "read counts skipped records" 100
    (Logsys.Log_io.Seg.read r);
  (match Logsys.Log_io.Seg.next r ~max_records:1 with
  | Some [| rec_ |] ->
      Alcotest.(check bool) "positioned at record 100" true
        (record_close ordered.(100) rec_)
  | _ -> Alcotest.fail "no record after skip");
  Alcotest.(check int) "read counts returned records" 101
    (Logsys.Log_io.Seg.read r);
  let n = Array.length ordered in
  Alcotest.(check int) "skip clamps at EOF" (n - 101)
    (Logsys.Log_io.Seg.skip r (n + 500));
  Alcotest.(check int) "read is the stream position" n
    (Logsys.Log_io.Seg.read r)

let exact_record_line_roundtrip () =
  let records = Logsys.Collected.merged_by_time (Lazy.force lossless) in
  let some = [ records.(0); records.(Array.length records / 2) ] in
  let nan_rec = { (List.hd some) with Logsys.Record.true_time = Float.nan } in
  List.iter
    (fun r ->
      let back =
        Logsys.Log_io.record_of_line (Logsys.Log_io.record_to_line_exact r)
      in
      Alcotest.(check bool)
        ("round-trip " ^ Logsys.Record.to_string r)
        true
        (Logsys.Record.equal r back && back.true_time = r.true_time
        || (Float.is_nan back.true_time && Float.is_nan r.true_time)))
    (nan_rec :: some)

let codec_segment_roundtrip () =
  let collected = Lazy.force lossless in
  let ordered = Logsys.Collected.merged_by_time collected in
  let seg = Array.sub ordered 0 (min 500 (Array.length ordered)) in
  let decoded = Logsys.Codec.decode_segment (Logsys.Codec.encode_segment seg) in
  Alcotest.(check int) "count" (Array.length seg) (Array.length decoded);
  Array.iteri
    (fun i (r : Logsys.Record.t) ->
      let d = decoded.(i) in
      Alcotest.(check int) "node" r.node d.node;
      Alcotest.(check bool) "kind" true (Logsys.Record.kind_equal r.kind d.kind);
      Alcotest.(check (pair int int)) "key" (r.origin, r.pkt_seq)
        (d.origin, d.pkt_seq);
      Alcotest.(check bool) "truth stripped" true
        (Float.is_nan d.true_time && d.gseq = -1))
    seg;
  Alcotest.check_raises "trailing bytes rejected"
    (Failure "Codec: trailing bytes in segment") (fun () ->
      ignore
        (Logsys.Codec.decode_segment
           (Bytes.cat (Logsys.Codec.encode_segment seg) (Bytes.make 1 'x'))))

(* -- Incremental global flow ---------------------------------------------- *)

let incremental_merge_equals_batch () =
  let collected = lossy_collected 0.2 7 in
  let flows = Array.of_list (batch_flows collected) in
  let batch_items = ref [] in
  let batch_stats =
    Refill.Global_flow.merge collected ~flows ~emit:(fun it ->
        batch_items := Refill.Flow.item_to_string it :: !batch_items)
  in
  let inc =
    Refill.Global_flow.Incremental.create
      ~n_nodes:(Logsys.Collected.n_nodes collected)
      ()
  in
  (* Records arrive in stream order and chunked; flows in eviction (not
     key) order — finish must not care. *)
  let ordered = Logsys.Collected.merged_by_time collected in
  let n = Array.length ordered in
  let i = ref 0 in
  while !i < n do
    let len = min 333 (n - !i) in
    Refill.Global_flow.Incremental.add_records inc (Array.sub ordered !i len);
    i := !i + len
  done;
  let shuffled = Array.copy flows in
  let rng = Prelude.Rng.create ~seed:99L in
  for i = Array.length shuffled - 1 downto 1 do
    let j = Prelude.Rng.int rng (i + 1) in
    let tmp = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- tmp
  done;
  Array.iter (Refill.Global_flow.Incremental.add_flow inc) shuffled;
  let inc_items = ref [] in
  let inc_stats =
    Refill.Global_flow.Incremental.finish inc ~emit:(fun it ->
        inc_items := Refill.Flow.item_to_string it :: !inc_items)
  in
  Alcotest.(check bool) "stats" true (batch_stats = inc_stats);
  Alcotest.(check (list string)) "items"
    (List.rev !batch_items) (List.rev !inc_items)

(* -- Summaries and config -------------------------------------------------- *)

let summarize_array_matches_list () =
  let flows = batch_flows (Lazy.force lossless) in
  Alcotest.(check bool) "array summary = list summary" true
    (Refill.Reconstruct.summarize flows
    = Refill.Reconstruct.summarize_array (Array.of_list flows))

let config_validation () =
  (match Refill.Config.validate Refill.Config.default with
  | Ok c -> Alcotest.(check bool) "default valid" true (c = Refill.Config.default)
  | Error e -> Alcotest.failf "default invalid: %s" (Refill.Error.message e));
  List.iter
    (fun bad ->
      match Refill.Config.validate bad with
      | Ok _ -> Alcotest.fail "invalid config accepted"
      | Error e -> Alcotest.(check int) "exit 2" 2 (Refill.Error.exit_code e))
    [
      { Refill.Config.default with watermark = 0 };
      { Refill.Config.default with chunk_events = -3 };
      { Refill.Config.default with jobs = Some 0 };
      { Refill.Config.default with shards = 0 };
      { Refill.Config.default with late_retention = Some (-1) };
    ]

let () =
  Alcotest.run "stream"
    [
      ( "equivalence",
        [
          Alcotest.test_case "lossless stream equals batch" `Quick
            lossless_stream_equals_batch;
          QCheck_alcotest.to_alcotest chunk_invariance;
          QCheck_alcotest.to_alcotest lossy_divergence_is_flagged;
          QCheck_alcotest.to_alcotest sharded_identical_lossless;
          QCheck_alcotest.to_alcotest sharded_identical_lossy;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume is byte-identical" `Quick
            checkpoint_resume_identical;
          Alcotest.test_case "sharded cut/resume is byte-identical" `Quick
            sharded_checkpoint_resume_identical;
          Alcotest.test_case "config conflict on resume rejected" `Quick
            resume_config_conflict_rejected;
          Alcotest.test_case "nonsense headers rejected" `Quick
            resume_rejects_nonsense_headers;
          Alcotest.test_case "v1 checkpoint still readable" `Quick
            v1_checkpoint_still_readable;
          Alcotest.test_case "evicted table is bounded" `Quick
            evicted_table_is_bounded;
          Alcotest.test_case "garbage rejected" `Quick resume_rejects_garbage;
          Alcotest.test_case "feed after finish" `Quick
            feed_after_finish_raises;
        ] );
      ( "segments",
        [
          Alcotest.test_case "seg reader round-trip" `Quick
            seg_reader_roundtrip;
          Alcotest.test_case "seg skip" `Quick seg_skip_fast_forwards;
          Alcotest.test_case "exact record lines" `Quick
            exact_record_line_roundtrip;
          Alcotest.test_case "codec segment round-trip" `Quick
            codec_segment_roundtrip;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "incremental merge equals batch" `Quick
            incremental_merge_equals_batch;
        ] );
      ( "api",
        [
          Alcotest.test_case "summarize_array" `Quick
            summarize_array_matches_list;
          Alcotest.test_case "config validation" `Quick config_validation;
        ] );
    ]
