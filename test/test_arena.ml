(* The flat-column arena (serve's wire-decode buffer): the materializing
   view must be Record.equal-exact for every kind and boundary value, the
   bulk decoders must agree with the record-path codec byte for byte, and
   Stream.feed_arena must reproduce Stream.feed's output exactly, lossless
   and lossy. *)

let scenario = lazy (Scenario.Citysee.run Scenario.Citysee.tiny)

let lossless = lazy (Scenario.Citysee.collected (Lazy.force scenario))

let sink () = (Lazy.force scenario).sink

let lossy_collected p seed =
  let rng = Prelude.Rng.create ~seed:(Int64.of_int seed) in
  Logsys.Collected.lossify (Logsys.Loss_model.uniform p) rng
    (Lazy.force lossless)

(* Nan-safe observable identity of a flow (see test_stream.ml). *)
let flow_sig (f : Refill.Flow.t) =
  (f.origin, f.seq, Refill.Flow.to_string f, f.stats)

(* -- Record generators ----------------------------------------------------- *)

(* Ints the packed columns must hold exactly, including min_int-adjacent
   values (Bigarray int columns carry full 63-bit OCaml ints). *)
let boundary_ints =
  [
    0;
    1;
    -1;
    7;
    1000;
    max_int;
    max_int - 1;
    min_int;
    min_int + 1;
    max_int / 2;
    -(max_int / 2) - 1;
  ]

let gen_any_int =
  QCheck.Gen.(oneof [ oneofl boundary_ints; small_signed_int; int ])

let gen_time =
  QCheck.Gen.(
    oneof
      [
        float;
        return Float.nan;
        return Float.infinity;
        return Float.neg_infinity;
        return 0.;
      ])

(* A record of any kind with unconstrained column values: what push/get
   must round-trip.  Peer is [-1] (unknown node) one time in four, the
   case the no-peer poison must never be confused with. *)
let gen_record =
  QCheck.Gen.(
    let* tag = int_range 0 7 in
    let* peer = frequency [ (1, return (-1)); (3, gen_any_int) ] in
    let kind =
      Logsys.Codec.kind_of_tag tag
        (if tag >= 1 && tag <= 6 then Some peer else None)
    in
    let* node = gen_any_int in
    let* origin = gen_any_int in
    let* pkt_seq = gen_any_int in
    let* gseq = gen_any_int in
    let+ true_time = gen_time in
    ({ node; kind; origin; pkt_seq; true_time; gseq } : Logsys.Record.t))

(* A record the codec can encode: zigzag-rangeable fields, node ids a
   segment header can carry. *)
let gen_codec_int =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0; 1; -1; 7; 1000; 1 lsl 60; max_int / 2; -(max_int / 2) - 1 ];
        small_signed_int;
      ])

let gen_codec_record =
  QCheck.Gen.(
    let* tag = int_range 0 7 in
    let* peer = frequency [ (1, return (-1)); (3, gen_codec_int) ] in
    let kind =
      Logsys.Codec.kind_of_tag tag
        (if tag >= 1 && tag <= 6 then Some peer else None)
    in
    let* node = gen_codec_int in
    let* origin = gen_codec_int in
    let+ pkt_seq = gen_codec_int in
    ({ node; kind; origin; pkt_seq; true_time = Float.nan; gseq = -1 }
      : Logsys.Record.t))

let arbitrary_records =
  QCheck.make
    QCheck.Gen.(array_size (int_range 0 64) gen_record)
    ~print:(fun arr ->
      Array.to_list arr
      |> List.map Logsys.Log_io.record_to_line_exact
      |> String.concat "\n")

let arbitrary_codec_records =
  QCheck.make
    QCheck.Gen.(array_size (int_range 0 64) gen_codec_record)
    ~print:(fun arr ->
      Array.to_list arr
      |> List.map Logsys.Log_io.record_to_line_exact
      |> String.concat "\n")

(* -- View exactness -------------------------------------------------------- *)

let view_roundtrip_property =
  QCheck.Test.make ~name:"Arena.get is Record.equal-exact for any record"
    ~count:500 arbitrary_records (fun records ->
      let a = Logsys.Arena.of_records records in
      if Logsys.Arena.length a <> Array.length records then
        QCheck.Test.fail_reportf "length %d <> %d" (Logsys.Arena.length a)
          (Array.length records);
      Array.iteri
        (fun i r ->
          if not (Logsys.Record.equal (Logsys.Arena.get a i) r) then
            QCheck.Test.fail_reportf "get %d: %s <> %s" i
              (Logsys.Log_io.record_to_line_exact (Logsys.Arena.get a i))
              (Logsys.Log_io.record_to_line_exact r))
        records;
      true)

let view_pinned_kinds () =
  (* One record of each kind, with the peer cases that matter pinned. *)
  let mk node kind : Logsys.Record.t =
    { node; kind; origin = 3; pkt_seq = 9; true_time = Float.nan; gseq = -1 }
  in
  let records =
    [|
      mk 1 Gen;
      mk 2 (Recv { from = -1 });
      mk 2 (Dup { from = 1 });
      mk 2 (Overflow { from = 1 });
      mk 1 (Trans { to_ = 2 });
      mk 1 (Ack_recvd { to_ = -1 });
      mk 1 (Retx_timeout { to_ = 2 });
      mk 0 Deliver;
    |]
  in
  let a = Logsys.Arena.of_records records in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "kind %d round-trips" i)
        true
        (Logsys.Record.equal (Logsys.Arena.get a i) r))
    records;
  (* to_records materializes the lot. *)
  let back = Logsys.Arena.to_records a in
  Alcotest.(check int) "to_records length" 8 (Array.length back);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) "to_records equal" true
        (Logsys.Record.equal back.(i) r))
    records

let clear_reuses_storage () =
  let a = Logsys.Arena.create ~capacity:4 () in
  for i = 0 to 99 do
    Logsys.Arena.push_row a ~node:i ~tag:0 ~peer:0 ~origin:i ~pkt_seq:i
      ~true_time:0. ~gseq:i
  done;
  Alcotest.(check int) "grown" 100 (Logsys.Arena.length a);
  let cap = Logsys.Arena.capacity a in
  Logsys.Arena.clear a;
  Alcotest.(check int) "cleared" 0 (Logsys.Arena.length a);
  Alcotest.(check int) "storage kept" cap (Logsys.Arena.capacity a)

(* -- Bulk decode parity ---------------------------------------------------- *)

let decode_log_parity =
  QCheck.Test.make
    ~name:"decode_log_into == decode_log on random encoded logs" ~count:300
    arbitrary_codec_records (fun records ->
      let b = Logsys.Codec.encode_log records in
      let via_records = Logsys.Codec.decode_log ~node:5 b in
      let a = Logsys.Arena.create () in
      let n = Logsys.Arena.decode_log_into a ~node:5 b in
      if n <> Array.length via_records then
        QCheck.Test.fail_reportf "row count %d <> %d" n
          (Array.length via_records);
      Array.iteri
        (fun i r ->
          if not (Logsys.Record.equal (Logsys.Arena.get a i) r) then
            QCheck.Test.fail_reportf "row %d: %s <> %s" i
              (Logsys.Log_io.record_to_line_exact (Logsys.Arena.get a i))
              (Logsys.Log_io.record_to_line_exact r))
        via_records;
      true)

let decode_segment_parity =
  QCheck.Test.make
    ~name:"decode_segment_into == decode_segment on random segments"
    ~count:300 arbitrary_codec_records (fun records ->
      let b = Logsys.Codec.encode_segment records in
      let via_records = Logsys.Codec.decode_segment b in
      let a = Logsys.Arena.create () in
      let n = Logsys.Arena.decode_segment_into a b in
      if n <> Array.length via_records then
        QCheck.Test.fail_reportf "row count %d <> %d" n
          (Array.length via_records);
      Array.iteri
        (fun i r ->
          if not (Logsys.Record.equal (Logsys.Arena.get a i) r) then
            QCheck.Test.fail_reportf "row %d differs" i)
        via_records;
      true)

let decode_rejects_garbage () =
  let a = Logsys.Arena.create () in
  let raises f =
    match f () with exception Failure _ -> true | _ -> false
  in
  Alcotest.(check bool) "truncated log raises" true
    (raises (fun () ->
         Logsys.Arena.decode_log_into a ~node:0 (Bytes.of_string "\x01")));
  Alcotest.(check bool) "unknown tag raises" true
    (raises (fun () ->
         Logsys.Arena.decode_log_into a ~node:0 (Bytes.of_string "\xff")));
  Alcotest.(check bool) "oversized varint raises" true
    (raises (fun () ->
         Logsys.Arena.decode_log_into a ~node:0
           (Bytes.of_string "\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f")));
  Alcotest.(check bool) "trailing segment bytes raise" true
    (raises (fun () ->
         Logsys.Arena.decode_segment_into a (Bytes.of_string "\x00\x00")))

(* -- Codec guards (satellite) ----------------------------------------------- *)

let zigzag_guards () =
  let raises f =
    match f () with exception Failure _ -> true | _ -> false
  in
  (* The extremes of the representable range still map. *)
  Alcotest.(check int) "max boundary round-trips" (max_int / 2)
    (Logsys.Codec.unzigzag (Logsys.Codec.zigzag (max_int / 2)));
  Alcotest.(check int) "min boundary round-trips"
    (-(max_int / 2) - 1)
    (Logsys.Codec.unzigzag (Logsys.Codec.zigzag (-(max_int / 2) - 1)));
  (* One past either end would silently wrap; both must raise. *)
  Alcotest.(check bool) "max_int/2 + 1 raises" true
    (raises (fun () -> Logsys.Codec.zigzag ((max_int / 2) + 1)));
  Alcotest.(check bool) "min_int raises" true
    (raises (fun () -> Logsys.Codec.zigzag min_int));
  Alcotest.(check bool) "max_int raises" true
    (raises (fun () -> Logsys.Codec.zigzag max_int));
  (* encode_record surfaces the guard for out-of-range fields. *)
  let r : Logsys.Record.t =
    {
      node = 0;
      kind = Gen;
      origin = max_int;
      pkt_seq = 0;
      true_time = Float.nan;
      gseq = -1;
    }
  in
  let buf = Buffer.create 8 in
  Alcotest.(check bool) "encode_record rejects out-of-range origin" true
    (raises (fun () -> Logsys.Codec.encode_record buf r))

(* -- Pipeline equivalence --------------------------------------------------- *)

let feed_arena_equals_feed =
  QCheck.Test.make ~name:"Stream.feed_arena == Stream.feed" ~count:15
    QCheck.(triple (int_range 0 60) (int_range 1 10_000) (int_range 1 999))
    (fun (pct, seed, chunk) ->
      let c = lossy_collected (float_of_int pct /. 100.) seed in
      let ordered = Logsys.Collected.merged_by_time c in
      let n = Array.length ordered in
      let watermark = max 1 (n / 10) in
      let config = { Refill.Config.default with watermark } in
      let run feed_chunk =
        let acc = ref [] in
        let t =
          Refill.Stream.create ~config ~sink:(sink ())
            ~emit:(fun (e : Refill.Stream.emitted) ->
              acc := (flow_sig e.flow, e.outcome) :: !acc)
            ()
        in
        let i = ref 0 in
        while !i < n do
          let len = min chunk (n - !i) in
          feed_chunk t !i len;
          i := !i + len
        done;
        let s = Refill.Stream.finish t in
        (List.rev !acc, s)
      in
      let via_records =
        run (fun t i len -> Refill.Stream.feed t (Array.sub ordered i len))
      in
      let arena = Logsys.Arena.of_records ordered in
      let via_arena =
        run (fun t i len ->
            Refill.Stream.feed_arena t
              (Logsys.Arena.slice arena ~off:i ~len))
      in
      via_records = via_arena)

let () =
  Alcotest.run "arena"
    [
      ( "view",
        [
          QCheck_alcotest.to_alcotest view_roundtrip_property;
          Alcotest.test_case "pinned kinds" `Quick view_pinned_kinds;
          Alcotest.test_case "clear reuses storage" `Quick clear_reuses_storage;
        ] );
      ( "decode",
        [
          QCheck_alcotest.to_alcotest decode_log_parity;
          QCheck_alcotest.to_alcotest decode_segment_parity;
          Alcotest.test_case "rejects garbage" `Quick decode_rejects_garbage;
        ] );
      ( "codec_guards",
        [ Alcotest.test_case "zigzag range" `Quick zigzag_guards ] );
      ( "pipeline",
        [ QCheck_alcotest.to_alcotest feed_arena_equals_feed ] );
    ]
