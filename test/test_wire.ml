(* Wire codec: the binary frames pinned byte for byte, round-trip fuzz
   in both framings, incremental decoding under arbitrary chunkings and
   its allocation bound, the 1 MiB cap in both framings, and rejection
   of truncated / garbage input. Plus the Jsonx parser the Json framing
   rides on. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Jsonx *)

let test_jsonx_parse () =
  let open Jsonx in
  (match parse {|{"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5e3}}|} with
  | Obj _ as j ->
    check_bool "a" true (to_int (Option.get (member "a" j)) = Some 1);
    (match member "b" j with
    | Some (Arr [ Bool true; Null; Str s ]) -> check_str "escape" "x\n" s
    | _ -> Alcotest.fail "b mismatch");
    (match member "c" j with
    | Some c -> check_bool "d" true (to_float (Option.get (member "d" c)) = Some (-2500.0))
    | None -> Alcotest.fail "no c")
  | _ -> Alcotest.fail "not an object");
  check_bool "trailing garbage rejected" true (parse_opt "{} x" = None);
  check_bool "empty rejected" true (parse_opt "" = None);
  check_bool "bad escape rejected" true (parse_opt {|"\q"|} = None);
  check_bool "unterminated rejected" true (parse_opt {|{"a": 1|} = None);
  check_bool "inf token" true (parse_opt "inf" = Some (Num Float.infinity));
  check_bool "-inf token" true (parse_opt "-inf" = Some (Num Float.neg_infinity));
  (match parse_opt "nan" with
  | Some (Num f) -> check_bool "nan token" true (Float.is_nan f)
  | _ -> Alcotest.fail "nan not parsed")

let test_jsonx_float_roundtrip () =
  List.iter
    (fun f ->
      let s = Jsonx.float_literal f in
      match Jsonx.parse s with
      | Jsonx.Num g ->
        check_bool
          (Printf.sprintf "float %h survives as %s" f s)
          true
          (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
          || (Float.is_nan f && Float.is_nan g))
      | _ -> Alcotest.fail "not a number"
      | exception Jsonx.Parse_error e -> Alcotest.fail e)
    [ 0.0; -0.0; 1.0; 0.1; Float.pi; 1e-300; -1.7976931348623157e308;
      4.9e-324; Float.infinity; Float.neg_infinity; Float.nan; 12345.6789 ]

let test_jsonx_print_parse () =
  let open Jsonx in
  let j =
    Obj
      [ ("s", Str "a\"b\\c\n"); ("n", Num 3.25); ("l", Arr [ Num 1.0; Null ]);
        ("e", Obj []) ]
  in
  check_bool "print/parse identity" true (parse (to_string j) = j)

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_sla =
  QCheck.Gen.(
    let* n = 1 -- 4 in
    let* raw_bounds = list_repeat n (float_range 0.1 1000.0) in
    let* raw_gains = list_repeat n (float_range 0.1 10.0) in
    let* penalty = float_range 0.0 5.0 in
    let bounds = List.sort_uniq Float.compare raw_bounds in
    let gains = List.sort_uniq Float.compare raw_gains |> List.rev in
    let k = min (List.length bounds) (List.length gains) in
    let levels =
      List.init k (fun i ->
          { Sla.bound = List.nth bounds i; gain = List.nth gains i })
    in
    return (Sla.make ~levels ~penalty))

let gen_query =
  QCheck.Gen.(
    let* id = 0 -- 1_000_000 in
    let* arrival = float_range 0.0 1e6 in
    let* size = float_range 0.001 1e4 in
    let* est_size = float_range 0.001 1e4 in
    let* retries = 0 -- 3 in
    let* tenant = 0 -- 8 in
    let* sla = gen_sla in
    return (Query.make ~est_size ~retries ~tenant ~id ~arrival ~size ~sla ()))

let gen_opt g = QCheck.Gen.(oneof [ return None; map Option.some g ])

let gen_msg =
  QCheck.Gen.(
    let f = float_range (-1e6) 1e6 in
    oneof
      [
        ( let* client = string_size ~gen:printable (0 -- 40) in
          let* version = 0 -- 100 in
          return (Wire.Hello { version; client }) );
        map (fun q -> Wire.Submit q) gen_query;
        return Wire.Eof;
        ( let* qid = 0 -- 1_000_000 in
          let* vnow = f in
          let* target = gen_opt (0 -- 64) in
          let* est_delta = gen_opt f in
          return (Wire.Decision { qid; vnow; target; est_delta }) );
        ( let* qid = 0 -- 1_000_000 in
          let* vnow = f in
          let* profit = f in
          return (Wire.Completion { qid; vnow; profit }) );
        ( let* qid = 0 -- 1_000_000 in
          let* vnow = f in
          return (Wire.Dropped { qid; vnow }) );
        ( let* completed = 0 -- 1_000_000 in
          let* rejected = 0 -- 1000 in
          let* dropped = 0 -- 1000 in
          let* measured = 0 -- 1_000_000 in
          let* late = 0 -- 1_000_000 in
          let* total_profit = f in
          let* avg_loss = f in
          let* avg_response = float_range 0.0 1e6 in
          let* vnow = float_range 0.0 1e9 in
          let* tenants =
            list_size (0 -- 4)
              ( let* tr_tenant = 1 -- 8 in
                let* tr_completed = 0 -- 1_000_000 in
                let* tr_rejected = 0 -- 1000 in
                let* tr_profit = f in
                return
                  { Wire.tr_tenant; tr_completed; tr_rejected; tr_profit } )
          in
          return
            (Wire.Summary
               { completed; rejected; dropped; measured; late; total_profit;
                 avg_loss; avg_response; vnow; tenants }) );
        map (fun e -> Wire.Error_msg e) (string_size ~gen:printable (0 -- 60));
      ])

let arbitrary_msg = QCheck.make ~print:(Fmt.to_to_string Wire.pp) gen_msg

(* Mostly [gen_msg], now and then a message whose string runs to about
   70 KB: a frame larger than the streaming decoder's first buffer. *)
let gen_stream_msg =
  QCheck.Gen.(
    frequency
      [
        (7, gen_msg);
        ( 1,
          map
            (fun e -> Wire.Error_msg e)
            (string_size ~gen:printable (4096 -- 70_000)) );
      ])

let arbitrary_msgs =
  QCheck.make
    ~print:Fmt.(to_to_string (Dump.list Wire.pp))
    QCheck.Gen.(list_size (1 -- 8) gen_stream_msg)

(* Read sizes from a byte at a time to the daemon's 64 KiB. Half the
   cases read 1-7 B, which split frame headers and Json lines across
   feeds; the rest read enough to grow and compact the buffer. *)
let gen_chunk =
  QCheck.Gen.(frequency [ (2, 1 -- 7); (1, 8 -- 4096); (1, 4097 -- 65_536) ])

(* ------------------------------------------------------------------ *)
(* Golden frames *)

(* One binary frame per message kind, byte for byte. An encoder and a
   decoder that slip the same way still round-trip, so only fixed bytes
   catch the slip; they may change only with [protocol_version]. *)

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let golden_query =
  Query.make ~est_size:19.5 ~retries:1 ~tenant:3 ~id:42 ~arrival:1234.5
    ~size:20.25
    ~sla:
      (Sla.make
         ~levels:
           [ { Sla.bound = 100.0; gain = 2.0 }; { bound = 250.0; gain = 0.5 } ]
         ~penalty:1.0)
    ()

let golden_frames =
  [
    ( "hello",
      Wire.Hello { version = 2; client = "golden" },
      "a702010000001600000000000000020000000000000006676f6c64656e" );
    ( "submit, two levels, tenant 3",
      Wire.Submit golden_query,
      "a7020200000060000000000000002a40934a0000000000403440000000000040"
        ^ "3380000000000000000000000000010000000000000003000000000000000240"
        ^ "590000000000004000000000000000406f4000000000003fe00000000000003f"
        ^ "f0000000000000" );
    ("eof", Wire.Eof, "a7020300000000");
    ( "decision, rejected, no delta",
      Wire.Decision { qid = 7; vnow = 12.5; target = None; est_delta = None },
      "a7020400000012000000000000000740290000000000000000" );
    ( "decision, target and delta",
      Wire.Decision
        { qid = 8; vnow = 13.25; target = Some 3; est_delta = Some (-0.75) },
      "a70204000000220000000000000008402a800000000000010000000000000003"
        ^ "01bfe8000000000000" );
    ( "completion",
      Wire.Completion { qid = 9; vnow = 100.125; profit = 1.5 },
      "a7020500000018000000000000000940590800000000003ff8000000000000" );
    ( "dropped",
      Wire.Dropped { qid = 10; vnow = 200.5 },
      "a7020600000010000000000000000a4069100000000000" );
    ( "summary, two tenant rows",
      Wire.Summary
        {
          completed = 100;
          rejected = 4;
          dropped = 2;
          measured = 90;
          late = 7;
          total_profit = 123.25;
          avg_loss = 0.375;
          avg_response = 41.5;
          vnow = 5000.0;
          tenants =
            [
              { Wire.tr_tenant = 1; tr_completed = 60; tr_rejected = 1;
                tr_profit = 80.5 };
              { tr_tenant = 2; tr_completed = 40; tr_rejected = 3;
                tr_profit = 42.75 };
            ];
        },
      "a702070000009000000000000000640000000000000004000000000000000200"
        ^ "0000000000005a0000000000000007405ed000000000003fd800000000000040"
        ^ "44c0000000000040b38800000000000000000000000002000000000000000100"
        ^ "0000000000003c00000000000000014054200000000000000000000000000200"
        ^ "0000000000002800000000000000034045600000000000" );
    ( "error",
      Wire.Error_msg "bad frame",
      "a70208000000110000000000000009626164206672616d65" );
  ]

let test_golden_frames () =
  check_int "protocol version" 2 Wire.protocol_version;
  List.iter
    (fun (name, m, expected) ->
      check_str name expected (hex (Wire.encode Wire.Binary m));
      match Wire.decode Wire.Binary (of_hex expected) with
      | Ok (m', n) ->
        check_int (name ^ ": consumed") (String.length expected / 2) n;
        check_bool (name ^ ": decodes to itself") true (Wire.equal m m')
      | Error _ -> Alcotest.failf "%s: golden frame does not decode" name)
    golden_frames

(* ------------------------------------------------------------------ *)
(* Round trips *)

let roundtrips framing m =
  let s = Wire.encode framing m in
  match Wire.decode framing s with
  | Ok (m', n) -> n = String.length s && Wire.equal m m'
  | Error _ -> false

let prop_roundtrip_binary =
  QCheck.Test.make ~name:"binary encode/decode is bit-exact" ~count:500
    arbitrary_msg (roundtrips Wire.Binary)

let prop_roundtrip_json =
  QCheck.Test.make ~name:"json encode/decode is bit-exact" ~count:500
    arbitrary_msg (roundtrips Wire.Json)

(* Streams survive arbitrary chunk boundaries: concatenate several
   frames, feed the decoder in random-sized pieces, get the same
   messages back in order. Frames up to about 70 KB and reads up to
   64 KiB make the decoder grow its buffer and move its live bytes to
   the front. *)
let prop_decoder_chunked framing =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "decoder reassembles chunked %s stream"
         (match framing with Wire.Binary -> "binary" | Wire.Json -> "json"))
    ~count:400
    QCheck.(pair arbitrary_msgs (make ~print:string_of_int gen_chunk))
    (fun (msgs, chunk) ->
      let stream = String.concat "" (List.map (Wire.encode framing) msgs) in
      let dec = Wire.Decoder.create () in
      let out = ref [] in
      let drain () =
        let continue = ref true in
        while !continue do
          match Wire.Decoder.next dec with
          | Ok (Some m) -> out := m :: !out
          | Ok None -> continue := false
          | Error e -> QCheck.Test.fail_reportf "decode error: %s" e
        done
      in
      let i = ref 0 in
      while !i < String.length stream do
        let n = min chunk (String.length stream - !i) in
        Wire.Decoder.feed dec (String.sub stream !i n);
        drain ();
        i := !i + n
      done;
      let got = List.rev !out in
      List.length got = List.length msgs
      && List.for_all2 Wire.equal msgs got
      && Wire.Decoder.buffered dec = 0)

(* Every strict prefix of a frame is Truncated, never Malformed and
   never a phantom message. *)
let prop_truncation_binary =
  QCheck.Test.make ~name:"binary frame prefixes decode as Truncated" ~count:200
    arbitrary_msg (fun m ->
      let s = Wire.encode Wire.Binary m in
      let ok = ref true in
      for n = 0 to String.length s - 1 do
        match Wire.decode Wire.Binary (String.sub s 0 n) with
        | Error Wire.Truncated -> ()
        | Ok _ | Error (Wire.Malformed _) -> ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* The streaming decoder's allocation and the 1 MiB cap *)

(* Bytes allocated while [f] runs; the input is built before. *)
let allocated f =
  let before = Gc.allocated_bytes () in
  f ();
  Gc.allocated_bytes () -. before

(* Feed [pieces] one at a time, decoding after each; the messages
   decoded, counted. *)
let feed_all dec pieces =
  let n = ref 0 in
  Array.iter
    (fun p ->
      Wire.Decoder.feed dec p;
      let more = ref true in
      while !more do
        match Wire.Decoder.next dec with
        | Ok (Some _) -> incr n
        | Ok None -> more := false
        | Error e -> Alcotest.fail e
      done)
    pieces;
  !n

let pieces ~size s =
  Array.init
    ((String.length s + size - 1) / size)
    (fun i -> String.sub s (i * size) (min size (String.length s - (i * size))))

(* A decoder that copied its pending bytes on every feed or every
   message would allocate about the stream's length per read or per
   message; this one allocates a small multiple of the stream's length
   in all. *)
let check_alloc_bound name ~stream_len bytes =
  check_bool
    (Printf.sprintf "%s: %.0f B allocated for a %d B stream" name bytes
       stream_len)
    true
    (bytes <= 16.0 *. Float.of_int stream_len)

let test_decoder_alloc_one_read () =
  let frame =
    Wire.encode Wire.Binary
      (Wire.Completion { qid = 9; vnow = 100.125; profit = 1.5 })
  in
  let stream = String.concat "" (List.init 2000 (fun _ -> frame)) in
  check_int "stream length" 62_000 (String.length stream);
  let dec = Wire.Decoder.create () in
  let n = ref 0 in
  let bytes = allocated (fun () -> n := feed_all dec [| stream |]) in
  check_int "decoded" 2000 !n;
  check_int "nothing left" 0 (Wire.Decoder.buffered dec);
  check_alloc_bound "2000 frames in one read" ~stream_len:62_000 bytes

let test_decoder_alloc_trickle framing () =
  let stream =
    Wire.encode framing (Wire.Error_msg (String.make (256 * 1024) 'x'))
  in
  let input = pieces ~size:16 stream in
  let dec = Wire.Decoder.create () in
  let n = ref 0 in
  let bytes = allocated (fun () -> n := feed_all dec input) in
  check_int "decoded" 1 !n;
  check_alloc_bound "256 KiB message in 16-byte reads"
    ~stream_len:(String.length stream) bytes

let max_payload = 1 lsl 20

(* A buffer grown for one large frame is not kept once the frame is
   decoded: an idle connection holds a few KiB, not its largest frame. *)
let test_decoder_gives_back () =
  let frame =
    Wire.encode Wire.Binary (Wire.Error_msg (String.make (max_payload - 8) 'x'))
  in
  let input = pieces ~size:65_536 frame in
  let dec = Wire.Decoder.create () in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  let before = live () in
  check_int "decoded" 1 (feed_all dec input);
  let held = live () - before in
  ignore (Sys.opaque_identity (input, dec));
  check_bool
    (Printf.sprintf "%d B held after a 1 MiB frame" held)
    true (held < 65_536)

(* A Json line is refused once it passes 1 MiB, as a binary frame whose
   length field does, whether or not its newline has arrived. *)
let test_json_line_cap () =
  let malformed name = function
    | Error (Wire.Malformed _) -> ()
    | Ok _ -> Alcotest.failf "%s: decoded" name
    | Error Wire.Truncated -> Alcotest.failf "%s: Truncated" name
  in
  let big = Wire.Error_msg (String.make (3 * 512 * 1024) 'x') in
  let line = Wire.encode Wire.Json big in
  check_int "line length" 1_572_887 (String.length line);
  malformed "1.5 MiB json line" (Wire.decode Wire.Json line);
  malformed "the same message in binary"
    (Wire.decode Wire.Binary (Wire.encode Wire.Binary big));
  let body = String.sub line 0 (String.length line - 1) in
  malformed "1.5 MiB json line without its newline"
    (Wire.decode Wire.Json body);
  (* [{"t":"error","msg":"] and ["}] around the string: 22 bytes. *)
  let line_of k = Wire.encode Wire.Json (Wire.Error_msg (String.make k 'x')) in
  let at_cap = line_of (max_payload - 22) in
  let over = line_of (max_payload - 21) in
  check_int "at the cap" (max_payload + 1) (String.length at_cap);
  (match Wire.decode Wire.Json at_cap with
  | Ok (_, n) -> check_int "a 1 MiB line decodes" (max_payload + 1) n
  | Error _ -> Alcotest.fail "a 1 MiB line refused");
  malformed "one byte over the cap" (Wire.decode Wire.Json over);
  (* Decoder: the line one byte over the cap, its newline in the read
     that crosses the cap. *)
  let dec = Wire.Decoder.create () in
  Wire.Decoder.feed dec (String.sub over 0 (max_payload - 10));
  check_bool "below the cap: wait" true (Wire.Decoder.next dec = Ok None);
  Wire.Decoder.feed dec
    (String.sub over (max_payload - 10)
       (String.length over - max_payload + 10));
  check_bool "newline in the crossing read: refused" true
    (Result.is_error (Wire.Decoder.next dec));
  (* Decoder: the 1.5 MiB line without its newline, in 64 KiB reads, is
     refused by the first read that passes the cap. *)
  let dec = Wire.Decoder.create () in
  let refused_at = ref None in
  Array.iteri
    (fun i p ->
      if !refused_at = None then begin
        Wire.Decoder.feed dec p;
        match Wire.Decoder.next dec with
        | Ok None -> ()
        | Ok (Some _) -> Alcotest.fail "an unterminated line decoded"
        | Error _ -> refused_at := Some i
      end)
    (pieces ~size:65_536 body);
  check_bool "refused at the 17th read" true (!refused_at = Some 16);
  let dec = Wire.Decoder.create () in
  check_int "a 1 MiB line through the decoder" 1
    (feed_all dec (pieces ~size:65_536 at_cap))

let test_garbage_prefix () =
  (* Binary: wrong magic is rejected immediately. *)
  (match Wire.decode Wire.Binary "\x00\x01\x02\x03\x04\x05\x06\x07" with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  (* Unknown tag. *)
  (match Wire.decode Wire.Binary "\xA7\x01\x63\x00\x00\x00\x00" with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "unknown tag accepted");
  (* Wrong version. *)
  (match Wire.decode Wire.Binary "\xA7\x63\x03\x00\x00\x00\x00" with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "bad version accepted");
  (* Oversized length field. *)
  (match Wire.decode Wire.Binary "\xA7\x01\x03\x7f\xff\xff\xff" with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "oversized frame accepted");
  (* Json: a line of garbage. *)
  (match Wire.decode Wire.Json "not json at all\n" with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "garbage json line accepted");
  (* Json: valid json, wrong shape. *)
  (match Wire.decode Wire.Json "{\"t\": \"nonsense\"}\n" with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "unknown message type accepted");
  (* Decoder: garbage first byte fails framing detection. *)
  let dec = Wire.Decoder.create () in
  Wire.Decoder.feed dec "garbage";
  (match Wire.Decoder.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage prefix accepted by decoder");
  (* Decoder: a malformed frame after a valid one still errors. *)
  let dec = Wire.Decoder.create () in
  Wire.Decoder.feed dec (Wire.encode Wire.Binary Wire.Eof ^ "\xA7\x01\x63");
  (match Wire.Decoder.next dec with
  | Ok (Some Wire.Eof) -> ()
  | _ -> Alcotest.fail "valid frame lost");
  Wire.Decoder.feed dec "\x00\x00\x00\x00";
  match Wire.Decoder.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed second frame accepted"

let test_framing_autodetect () =
  let dec = Wire.Decoder.create () in
  check_bool "undetected" true (Wire.Decoder.framing dec = None);
  Wire.Decoder.feed dec (Wire.encode Wire.Json Wire.Eof);
  (match Wire.Decoder.next dec with
  | Ok (Some Wire.Eof) -> ()
  | _ -> Alcotest.fail "json frame not decoded");
  check_bool "json detected" true (Wire.Decoder.framing dec = Some Wire.Json);
  let dec = Wire.Decoder.create () in
  Wire.Decoder.feed dec (Wire.encode Wire.Binary Wire.Eof);
  (match Wire.Decoder.next dec with
  | Ok (Some Wire.Eof) -> ()
  | _ -> Alcotest.fail "binary frame not decoded");
  check_bool "binary detected" true
    (Wire.Decoder.framing dec = Some Wire.Binary)

let test_submit_roundtrip_example () =
  (* One worked example with exact expectations, so a fuzz regression
     has a readable anchor. *)
  let sla =
    Sla.make
      ~levels:[ { Sla.bound = 100.0; gain = 2.0 }; { bound = 250.0; gain = 0.5 } ]
      ~penalty:1.0
  in
  let q = Query.make ~est_size:19.5 ~id:42 ~arrival:1234.5 ~size:20.25 ~sla () in
  List.iter
    (fun framing ->
      match Wire.decode framing (Wire.encode framing (Wire.Submit q)) with
      | Ok (Wire.Submit q', _) ->
        check_int "id" 42 q'.Query.id;
        check_bool "arrival" true (q'.Query.arrival = 1234.5);
        check_bool "size" true (q'.Query.size = 20.25);
        check_bool "est" true (q'.Query.est_size = 19.5);
        check_bool "sla" true (Sla.equal sla q'.Query.sla)
      | _ -> Alcotest.fail "submit did not round-trip")
    [ Wire.Binary; Wire.Json ]

let test_submit_nan_arrival_rejected () =
  (* A Submit whose arrival is NaN must not decode: admitted, it would
     set the session clock to NaN and complete with a NaN response. The
     binary frame is patched in place (header 7 bytes, then the 8-byte
     id, then the arrival); the Json line is re-printed with a [nan]
     token, which Jsonx parses. *)
  let q =
    Query.make ~id:7 ~arrival:12.5 ~size:3.0 ~sla:(Sla.one_zero ~bound:10.0) ()
  in
  let binary =
    let b = Bytes.of_string (Wire.encode Wire.Binary (Wire.Submit q)) in
    check_bool "arrival at byte 15" true
      (Int64.float_of_bits (Bytes.get_int64_be b 15) = 12.5);
    Bytes.set_int64_be b 15 (Int64.bits_of_float Float.nan);
    Bytes.to_string b
  in
  let json =
    match Jsonx.parse (Wire.encode Wire.Json (Wire.Submit q)) with
    | Jsonx.Obj fields ->
      let patch = function
        | "q", Jsonx.Obj qf ->
          ( "q",
            Jsonx.Obj
              (List.map
                 (function
                   | "arrival", _ -> ("arrival", Jsonx.Num Float.nan)
                   | kv -> kv)
                 qf) )
        | kv -> kv
      in
      Jsonx.to_string (Jsonx.Obj (List.map patch fields)) ^ "\n"
    | _ -> Alcotest.fail "submit is not a Json object"
  in
  List.iter
    (fun (framing, frame) ->
      match Wire.decode framing frame with
      | Error (Wire.Malformed e) ->
        check_bool
          (Printf.sprintf "located error (%s)" e)
          true
          (String.starts_with ~prefix:"invalid query" e)
      | Error Wire.Truncated -> Alcotest.fail "NaN arrival read as truncated"
      | Ok _ -> Alcotest.fail "NaN arrival decoded")
    [ (Wire.Binary, binary); (Wire.Json, json) ]

let () =
  Alcotest.run "wire"
    [
      ( "jsonx",
        [
          Alcotest.test_case "parse" `Quick test_jsonx_parse;
          Alcotest.test_case "float literal roundtrip" `Quick
            test_jsonx_float_roundtrip;
          Alcotest.test_case "print/parse identity" `Quick
            test_jsonx_print_parse;
        ] );
      ( "golden",
        [
          Alcotest.test_case "one binary frame per message kind" `Quick
            test_golden_frames;
        ] );
      ( "roundtrip",
        [
          qtest prop_roundtrip_binary;
          qtest prop_roundtrip_json;
          Alcotest.test_case "submit example" `Quick
            test_submit_roundtrip_example;
        ] );
      ( "decoder",
        [
          qtest (prop_decoder_chunked Wire.Binary);
          qtest (prop_decoder_chunked Wire.Json);
          qtest prop_truncation_binary;
          Alcotest.test_case "garbage rejection" `Quick test_garbage_prefix;
          Alcotest.test_case "framing autodetect" `Quick
            test_framing_autodetect;
          Alcotest.test_case "NaN arrival rejected" `Quick
            test_submit_nan_arrival_rejected;
          Alcotest.test_case "json line over 1 MiB rejected" `Quick
            test_json_line_cap;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "2000 frames in one read" `Quick
            test_decoder_alloc_one_read;
          Alcotest.test_case "256 KiB binary frame, 16-byte reads" `Quick
            (test_decoder_alloc_trickle Wire.Binary);
          Alcotest.test_case "256 KiB json line, 16-byte reads" `Quick
            (test_decoder_alloc_trickle Wire.Json);
          Alcotest.test_case "an emptied buffer is given back" `Quick
            test_decoder_gives_back;
        ] );
    ]
