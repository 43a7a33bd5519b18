(* Wire codec: one message catalogue, two framings.

   The binary framing is the fast path: fixed 7-byte header
   [A7 ver tag len32be] and a payload of i64be scalars (floats as
   their IEEE bits), so round-trips are bit-exact with no parsing
   ambiguity. The Json framing is the debuggable twin — one compact
   object per line, floats via Jsonx.float_literal — handy with
   netcat and for eyeballing captures; finite floats still round-trip
   exactly ([%.17g]).

   Frames are size-capped (1 MiB), a binary payload by its length
   field and a Json line by its length with or without its newline, so
   neither a garbage length field nor an endless line can make a
   decoder buffer unboundedly.

   A binary frame is written once, into a buffer of its exact size.
   Decoding reads a frame where it lies: [decode] at the head of a
   string, [Decoder] in its pending-bytes buffer between two cursors. *)

let protocol_version = 2
let magic = '\xA7'
let max_payload = 1 lsl 20

(* One per-tenant accounting line in the end-of-run summary. *)
type tenant_row = {
  tr_tenant : int;
  tr_completed : int;
  tr_rejected : int;
  tr_profit : float;
}

type summary = {
  completed : int;
  rejected : int;
  dropped : int;
  measured : int;
  late : int;
  total_profit : float;
  avg_loss : float;
  avg_response : float;
  vnow : float;
  tenants : tenant_row list;  (* sorted by tenant id; [] = untagged run *)
}

type msg =
  | Hello of { version : int; client : string }
  | Submit of Query.t
  | Eof
  | Decision of {
      qid : int;
      vnow : float;
      target : int option;
      est_delta : float option;
    }
  | Completion of { qid : int; vnow : float; profit : float }
  | Dropped of { qid : int; vnow : float }
  | Summary of summary
  | Error_msg of string

type framing = Binary | Json

type decode_error = Truncated | Malformed of string

(* ------------------------------------------------------------------ *)
(* Equality (bit-exact on floats: NaN = NaN, 0. <> -0.) *)

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let foeq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> feq a b
  | _ -> false

let query_equal (a : Query.t) (b : Query.t) =
  a.id = b.id && feq a.arrival b.arrival && feq a.size b.size
  && feq a.est_size b.est_size && a.retries = b.retries
  && a.tenant = b.tenant
  && Sla.penalty a.sla = Sla.penalty b.sla
  && List.length (Sla.levels a.sla) = List.length (Sla.levels b.sla)
  && List.for_all2
       (fun (la : Sla.level) (lb : Sla.level) ->
         feq la.bound lb.bound && feq la.gain lb.gain)
       (Sla.levels a.sla) (Sla.levels b.sla)

let equal m1 m2 =
  match (m1, m2) with
  | Hello a, Hello b -> a.version = b.version && a.client = b.client
  | Submit a, Submit b -> query_equal a b
  | Eof, Eof -> true
  | Decision a, Decision b ->
    a.qid = b.qid && feq a.vnow b.vnow && a.target = b.target
    && foeq a.est_delta b.est_delta
  | Completion a, Completion b ->
    a.qid = b.qid && feq a.vnow b.vnow && feq a.profit b.profit
  | Dropped a, Dropped b -> a.qid = b.qid && feq a.vnow b.vnow
  | Summary a, Summary b ->
    a.completed = b.completed && a.rejected = b.rejected
    && a.dropped = b.dropped && a.measured = b.measured && a.late = b.late
    && feq a.total_profit b.total_profit && feq a.avg_loss b.avg_loss
    && feq a.avg_response b.avg_response && feq a.vnow b.vnow
    && List.length a.tenants = List.length b.tenants
    && List.for_all2
         (fun ta tb ->
           ta.tr_tenant = tb.tr_tenant && ta.tr_completed = tb.tr_completed
           && ta.tr_rejected = tb.tr_rejected && feq ta.tr_profit tb.tr_profit)
         a.tenants b.tenants
  | Error_msg a, Error_msg b -> a = b
  | _ -> false

let pp ppf = function
  | Hello { version; client } -> Fmt.pf ppf "hello[v%d %s]" version client
  | Submit q -> Fmt.pf ppf "submit[%a]" Query.pp q
  | Eof -> Fmt.pf ppf "eof"
  | Decision { qid; vnow; target; est_delta } ->
    Fmt.pf ppf "decision[q%d @%g -> %a delta=%a]" qid vnow
      Fmt.(option ~none:(any "reject") int)
      target
      Fmt.(option ~none:(any "-") float)
      est_delta
  | Completion { qid; vnow; profit } ->
    Fmt.pf ppf "completion[q%d @%g profit=%g]" qid vnow profit
  | Dropped { qid; vnow } -> Fmt.pf ppf "dropped[q%d @%g]" qid vnow
  | Summary s ->
    Fmt.pf ppf "summary[completed=%d profit=%g @%g]" s.completed
      s.total_profit s.vnow
  | Error_msg e -> Fmt.pf ppf "error[%s]" e

(* ------------------------------------------------------------------ *)
(* Binary framing *)

let tag_of_msg = function
  | Hello _ -> 1
  | Submit _ -> 2
  | Eof -> 3
  | Decision _ -> 4
  | Completion _ -> 5
  | Dropped _ -> 6
  | Summary _ -> 7
  | Error_msg _ -> 8

(* The payload's exact size, so a frame is written once into a buffer
   of its final length. Scalars are 8 bytes, an option flag 1, a
   string its 8-byte length and its bytes. *)
let str_len s = 8 + String.length s
let opt_len = function None -> 1 | Some _ -> 9

(* id, arrival, size, est_size, retries, tenant, n_levels; a bound
   and a gain per level; the penalty. *)
let query_len (q : Query.t) = 8 * (8 + (2 * Sla.num_levels q.sla))

let payload_len = function
  | Hello { client; _ } -> 8 + str_len client
  | Submit q -> query_len q
  | Eof -> 0
  | Decision { target; est_delta; _ } -> 16 + opt_len target + opt_len est_delta
  | Completion _ -> 24
  | Dropped _ -> 16
  | Summary s -> 80 + (32 * List.length s.tenants)
  | Error_msg e -> str_len e

(* Writers take the write position and return the next one. *)
let set_i64 b pos n =
  Bytes.set_int64_be b pos (Int64.of_int n);
  pos + 8

let set_f b pos f =
  Bytes.set_int64_be b pos (Int64.bits_of_float f);
  pos + 8

let set_str b pos s =
  let pos = set_i64 b pos (String.length s) in
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let set_flag b pos present =
  Bytes.set_uint8 b pos (if present then 1 else 0);
  pos + 1

let set_query b pos (q : Query.t) =
  let pos = set_i64 b pos q.id in
  let pos = set_f b pos q.arrival in
  let pos = set_f b pos q.size in
  let pos = set_f b pos q.est_size in
  let pos = set_i64 b pos q.retries in
  let pos = set_i64 b pos q.tenant in
  let n = Sla.num_levels q.sla in
  let bounds = Sla.bounds q.sla and gains = Sla.gains q.sla in
  let pos = ref (set_i64 b pos n) in
  for i = 0 to n - 1 do
    pos := set_f b (set_f b !pos bounds.(i)) gains.(i)
  done;
  set_f b !pos (Sla.penalty q.sla)

let set_payload b pos = function
  | Hello { version; client } -> set_str b (set_i64 b pos version) client
  | Submit q -> set_query b pos q
  | Eof -> pos
  | Decision { qid; vnow; target; est_delta } -> (
    let pos = set_f b (set_i64 b pos qid) vnow in
    let pos =
      match target with
      | None -> set_flag b pos false
      | Some t -> set_i64 b (set_flag b pos true) t
    in
    match est_delta with
    | None -> set_flag b pos false
    | Some d -> set_f b (set_flag b pos true) d)
  | Completion { qid; vnow; profit } ->
    set_f b (set_f b (set_i64 b pos qid) vnow) profit
  | Dropped { qid; vnow } -> set_f b (set_i64 b pos qid) vnow
  | Summary s ->
    let pos = set_i64 b pos s.completed in
    let pos = set_i64 b pos s.rejected in
    let pos = set_i64 b pos s.dropped in
    let pos = set_i64 b pos s.measured in
    let pos = set_i64 b pos s.late in
    let pos = set_f b pos s.total_profit in
    let pos = set_f b pos s.avg_loss in
    let pos = set_f b pos s.avg_response in
    let pos = set_f b pos s.vnow in
    let pos = set_i64 b pos (List.length s.tenants) in
    List.fold_left
      (fun pos tr ->
        let pos = set_i64 b pos tr.tr_tenant in
        let pos = set_i64 b pos tr.tr_completed in
        let pos = set_i64 b pos tr.tr_rejected in
        set_f b pos tr.tr_profit)
      pos s.tenants
  | Error_msg e -> set_str b pos e

(* One exactly sized buffer per frame, written once and handed out as
   the string it becomes. *)
let encode_binary m =
  let plen = payload_len m in
  let b = Bytes.create (7 + plen) in
  Bytes.set b 0 magic;
  Bytes.set_uint8 b 1 protocol_version;
  Bytes.set_uint8 b 2 (tag_of_msg m);
  Bytes.set_int32_be b 3 (Int32.of_int plen);
  let stop = set_payload b 7 m in
  assert (stop = 7 + plen);
  Bytes.unsafe_to_string b

(* Payload reader: a cursor over the payload slice [pos, stop) of a
   byte buffer, read in place. A malformed payload (underrun, bad
   option flag, absurd list length, invalid query) raises [Bad]. *)
exception Bad of string

type reader = { b : Bytes.t; mutable pos : int; stop : int }

let need r n = if n > r.stop - r.pos then raise (Bad "payload underrun")

let rd_i64 r =
  need r 8;
  let v = Int64.to_int (Bytes.get_int64_be r.b r.pos) in
  r.pos <- r.pos + 8;
  v

let rd_f r =
  need r 8;
  let v = Int64.float_of_bits (Bytes.get_int64_be r.b r.pos) in
  r.pos <- r.pos + 8;
  v

let rd_str r =
  let n = rd_i64 r in
  if n < 0 || n > max_payload then raise (Bad "bad string length");
  need r n;
  let v = Bytes.sub_string r.b r.pos n in
  r.pos <- r.pos + n;
  v

let rd_flag r =
  need r 1;
  let flag = Bytes.get_uint8 r.b r.pos in
  r.pos <- r.pos + 1;
  match flag with
  | 0 -> false
  | 1 -> true
  | _ -> raise (Bad "bad option flag")

let rd_query r =
  let id = rd_i64 r in
  let arrival = rd_f r in
  let size = rd_f r in
  let est_size = rd_f r in
  let retries = rd_i64 r in
  let tenant = rd_i64 r in
  let n_levels = rd_i64 r in
  if n_levels < 0 || n_levels > 4096 then raise (Bad "bad level count");
  need r ((16 * n_levels) + 8);
  let bounds = Array.create_float n_levels
  and gains = Array.create_float (n_levels + 1) in
  for i = 0 to n_levels - 1 do
    bounds.(i) <- rd_f r;
    gains.(i) <- rd_f r
  done;
  let penalty = rd_f r in
  match Sla.of_array ~bounds ~gains ~penalty with
  | sla -> (
    try Query.make ~est_size ~retries ~tenant ~id ~arrival ~size ~sla ()
    with Invalid_argument e -> raise (Bad ("invalid query: " ^ e)))
  | exception Sla.Invalid e -> raise (Bad ("invalid sla: " ^ e))

let msg_of_payload tag r =
  let m =
    match tag with
    | 1 ->
      let version = rd_i64 r in
      let client = rd_str r in
      Hello { version; client }
    | 2 -> Submit (rd_query r)
    | 3 -> Eof
    | 4 ->
      let qid = rd_i64 r in
      let vnow = rd_f r in
      let target = if rd_flag r then Some (rd_i64 r) else None in
      let est_delta = if rd_flag r then Some (rd_f r) else None in
      Decision { qid; vnow; target; est_delta }
    | 5 ->
      let qid = rd_i64 r in
      let vnow = rd_f r in
      let profit = rd_f r in
      Completion { qid; vnow; profit }
    | 6 ->
      let qid = rd_i64 r in
      let vnow = rd_f r in
      Dropped { qid; vnow }
    | 7 ->
      let completed = rd_i64 r in
      let rejected = rd_i64 r in
      let dropped = rd_i64 r in
      let measured = rd_i64 r in
      let late = rd_i64 r in
      let total_profit = rd_f r in
      let avg_loss = rd_f r in
      let avg_response = rd_f r in
      let vnow = rd_f r in
      let n_tenants = rd_i64 r in
      if n_tenants < 0 || n_tenants > 65536 then
        raise (Bad "bad tenant row count");
      let tenants =
        List.init n_tenants (fun _ ->
            let tr_tenant = rd_i64 r in
            let tr_completed = rd_i64 r in
            let tr_rejected = rd_i64 r in
            let tr_profit = rd_f r in
            { tr_tenant; tr_completed; tr_rejected; tr_profit })
      in
      Summary
        {
          completed;
          rejected;
          dropped;
          measured;
          late;
          total_profit;
          avg_loss;
          avg_response;
          vnow;
          tenants;
        }
    | 8 -> Error_msg (rd_str r)
    | t -> raise (Bad (Printf.sprintf "unknown tag %d" t))
  in
  if r.pos <> r.stop then raise (Bad "trailing payload bytes");
  m

(* The frame at [pos] of [b], which holds valid bytes up to [stop]. *)
let decode_binary b ~pos ~stop =
  let len = stop - pos in
  if len < 1 then Error Truncated
  else if Bytes.get b pos <> magic then Error (Malformed "bad magic")
  else if len < 7 then Error Truncated
  else
    let version = Bytes.get_uint8 b (pos + 1) in
    let tag = Bytes.get_uint8 b (pos + 2) in
    let plen = Int32.to_int (Bytes.get_int32_be b (pos + 3)) in
    if version <> protocol_version then
      Error (Malformed (Printf.sprintf "unsupported version %d" version))
    else if plen < 0 || plen > max_payload then
      Error (Malformed "payload too large")
    else if len < 7 + plen then Error Truncated
    else
      let r = { b; pos = pos + 7; stop = pos + 7 + plen } in
      match msg_of_payload tag r with
      | m -> Ok (m, 7 + plen)
      | exception Bad e -> Error (Malformed e)

(* ------------------------------------------------------------------ *)
(* Json framing *)

let jf f = Jsonx.Num f
let ji i = Jsonx.Num (float_of_int i)
let jopt f = function None -> Jsonx.Null | Some v -> f v

let json_of_query (q : Query.t) =
  Jsonx.Obj
    [
      ("id", ji q.id);
      ("arrival", jf q.arrival);
      ("size", jf q.size);
      ("est_size", jf q.est_size);
      ("retries", ji q.retries);
      ("tenant", ji q.tenant);
      ( "sla",
        Jsonx.Obj
          [
            ( "levels",
              Jsonx.Arr
                (List.map
                   (fun (l : Sla.level) -> Jsonx.Arr [ jf l.bound; jf l.gain ])
                   (Sla.levels q.sla)) );
            ("penalty", jf (Sla.penalty q.sla));
          ] );
    ]

let json_of_msg m =
  let obj t fields = Jsonx.Obj (("t", Jsonx.Str t) :: fields) in
  match m with
  | Hello { version; client } ->
    obj "hello" [ ("version", ji version); ("client", Jsonx.Str client) ]
  | Submit q -> obj "submit" [ ("q", json_of_query q) ]
  | Eof -> obj "eof" []
  | Decision { qid; vnow; target; est_delta } ->
    obj "decision"
      [
        ("qid", ji qid);
        ("vnow", jf vnow);
        ("target", jopt ji target);
        ("est_delta", jopt jf est_delta);
      ]
  | Completion { qid; vnow; profit } ->
    obj "completion" [ ("qid", ji qid); ("vnow", jf vnow); ("profit", jf profit) ]
  | Dropped { qid; vnow } -> obj "dropped" [ ("qid", ji qid); ("vnow", jf vnow) ]
  | Summary s ->
    obj "summary"
      [
        ("completed", ji s.completed);
        ("rejected", ji s.rejected);
        ("dropped", ji s.dropped);
        ("measured", ji s.measured);
        ("late", ji s.late);
        ("total_profit", jf s.total_profit);
        ("avg_loss", jf s.avg_loss);
        ("avg_response", jf s.avg_response);
        ("vnow", jf s.vnow);
        ( "tenants",
          Jsonx.Arr
            (List.map
               (fun tr ->
                 Jsonx.Obj
                   [
                     ("tenant", ji tr.tr_tenant);
                     ("completed", ji tr.tr_completed);
                     ("rejected", ji tr.tr_rejected);
                     ("profit", jf tr.tr_profit);
                   ])
               s.tenants) );
      ]
  | Error_msg e -> obj "error" [ ("msg", Jsonx.Str e) ]

let encode_json m = Jsonx.to_string (json_of_msg m) ^ "\n"

(* Field accessors that raise [Bad] — decoding shares the binary
   path's error channel. *)
let jget j k = match Jsonx.member k j with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing field %S" k))

let jint j k =
  match Jsonx.to_int (jget j k) with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "field %S: not an int" k))

let jfloat j k =
  match Jsonx.to_float (jget j k) with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "field %S: not a number" k))

let jstr j k =
  match Jsonx.to_str (jget j k) with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "field %S: not a string" k))

let jopt_of j k conv =
  match jget j k with Jsonx.Null -> None | v -> (
    match conv v with
    | Some x -> Some x
    | None -> raise (Bad (Printf.sprintf "field %S: bad value" k)))

let query_of_json j =
  let levels =
    match Jsonx.to_list (jget (jget j "sla") "levels") with
    | None -> raise (Bad "sla.levels: not a list")
    | Some ls ->
      List.map
        (fun l ->
          match Jsonx.to_list l with
          | Some [ b; g ] -> (
            match (Jsonx.to_float b, Jsonx.to_float g) with
            | Some bound, Some gain -> { Sla.bound; gain }
            | _ -> raise (Bad "sla level: not numbers"))
          | _ -> raise (Bad "sla level: not a pair"))
        ls
  in
  let penalty = jfloat (jget j "sla") "penalty" in
  match Sla.make ~levels ~penalty with
  | sla -> (
    try
      (* [tenant] is optional on the wire: hand-written Json (netcat)
         predating tenancy still parses, defaulting to the anonymous
         tenant. *)
      let tenant =
        match Jsonx.member "tenant" j with
        | None | Some Jsonx.Null -> 0
        | Some v -> (
          match Jsonx.to_int v with
          | Some t -> t
          | None -> raise (Bad "field \"tenant\": not an int"))
      in
      Query.make ~est_size:(jfloat j "est_size") ~retries:(jint j "retries")
        ~tenant ~id:(jint j "id") ~arrival:(jfloat j "arrival")
        ~size:(jfloat j "size") ~sla ()
    with Invalid_argument e -> raise (Bad ("invalid query: " ^ e)))
  | exception Sla.Invalid e -> raise (Bad ("invalid sla: " ^ e))

let msg_of_json j =
  match jstr j "t" with
  | "hello" -> Hello { version = jint j "version"; client = jstr j "client" }
  | "submit" -> Submit (query_of_json (jget j "q"))
  | "eof" -> Eof
  | "decision" ->
    Decision
      {
        qid = jint j "qid";
        vnow = jfloat j "vnow";
        target = jopt_of j "target" Jsonx.to_int;
        est_delta = jopt_of j "est_delta" Jsonx.to_float;
      }
  | "completion" ->
    Completion
      { qid = jint j "qid"; vnow = jfloat j "vnow"; profit = jfloat j "profit" }
  | "dropped" -> Dropped { qid = jint j "qid"; vnow = jfloat j "vnow" }
  | "summary" ->
    Summary
      {
        completed = jint j "completed";
        rejected = jint j "rejected";
        dropped = jint j "dropped";
        measured = jint j "measured";
        late = jint j "late";
        total_profit = jfloat j "total_profit";
        avg_loss = jfloat j "avg_loss";
        avg_response = jfloat j "avg_response";
        vnow = jfloat j "vnow";
        tenants =
          (match Jsonx.member "tenants" j with
          | None | Some Jsonx.Null -> []
          | Some v -> (
            match Jsonx.to_list v with
            | None -> raise (Bad "field \"tenants\": not a list")
            | Some rows ->
              List.map
                (fun row ->
                  {
                    tr_tenant = jint row "tenant";
                    tr_completed = jint row "completed";
                    tr_rejected = jint row "rejected";
                    tr_profit = jfloat row "profit";
                  })
                rows));
      }
  | "error" -> Error_msg (jstr j "msg")
  | t -> raise (Bad (Printf.sprintf "unknown message type %S" t))

(* The first newline in [from, stop) of [b], or -1. *)
let rec find_nl b from stop =
  if from >= stop then -1
  else if Bytes.unsafe_get b from = '\n' then from
  else find_nl b (from + 1) stop

(* The line at [pos] of [b], which holds valid bytes up to [stop]; its
   newline is searched for from [from], the bytes before it being known
   to hold none. A line longer than [max_payload] is refused unparsed,
   as a binary frame over the cap is, and before its newline arrives
   once the bytes held pass the cap. *)
let decode_json b ~pos ?(from = pos) ~stop () =
  match find_nl b from stop with
  | -1 ->
    if stop - pos > max_payload then Error (Malformed "line too long")
    else Error Truncated
  | nl when nl - pos > max_payload -> Error (Malformed "line too long")
  | nl -> (
    let last = if nl > pos && Bytes.get b (nl - 1) = '\r' then nl - 1 else nl in
    match Jsonx.parse (Bytes.sub_string b pos (last - pos)) with
    | j -> (
      match msg_of_json j with
      | m -> Ok (m, nl + 1 - pos)
      | exception Bad e -> Error (Malformed e))
    | exception Jsonx.Parse_error e -> Error (Malformed ("bad json: " ^ e)))

(* ------------------------------------------------------------------ *)
(* Public codec *)

let encode = function Binary -> encode_binary | Json -> encode_json

(* The string is only read: viewing it as bytes shares it safely. *)
let decode framing s =
  let b = Bytes.unsafe_of_string s and stop = String.length s in
  match framing with
  | Binary -> decode_binary b ~pos:0 ~stop
  | Json -> decode_json b ~pos:0 ~stop ()

(* The pending bytes live in [buf] between the cursors [lo] and [hi]
   and are decoded where they lie. A feed that does not fit after [hi]
   first moves the live bytes to the front, and doubles the buffer only
   if they still do not fit; a buffer emptied by [next] rewinds both
   cursors to 0 for free. So each byte is copied in once and moved
   O(1) times on average, whatever the read size. A buffer grown past
   [keep] bytes by a large frame is dropped once it empties: an idle
   connection holds [initial] bytes, not the largest frame it ever
   sent. *)
module Decoder = struct
  let initial = 4096
  let keep = 1 lsl 18

  type t = {
    mutable fr : framing option;
    mutable buf : Bytes.t;
    mutable lo : int;  (* first unconsumed byte *)
    mutable hi : int;  (* one past the last fed byte *)
    mutable scanned : int;
        (* Json: bytes from [lo] already searched for a newline *)
  }

  let create ?framing () =
    { fr = framing; buf = Bytes.create initial; lo = 0; hi = 0; scanned = 0 }

  let framing t = t.fr
  let buffered t = t.hi - t.lo

  let reserve t n =
    if n > Bytes.length t.buf - t.hi then begin
      let live = t.hi - t.lo in
      let dst =
        if live + n <= Bytes.length t.buf then t.buf
        else Bytes.create (max (2 * Bytes.length t.buf) (live + n))
      in
      Bytes.blit t.buf t.lo dst 0 live;
      t.buf <- dst;
      t.lo <- 0;
      t.hi <- live
    end

  let feed_subbytes t b off n =
    if off < 0 || n < 0 || off > Bytes.length b - n then
      invalid_arg "Wire.Decoder.feed_subbytes";
    reserve t n;
    Bytes.blit b off t.buf t.hi n;
    t.hi <- t.hi + n

  (* [s] is only read. *)
  let feed t s = feed_subbytes t (Bytes.unsafe_of_string s) 0 (String.length s)

  let consume t n =
    t.scanned <- 0;
    if t.lo + n = t.hi then begin
      t.lo <- 0;
      t.hi <- 0;
      if Bytes.length t.buf > keep then t.buf <- Bytes.create initial
    end
    else t.lo <- t.lo + n

  (* A Json line is searched for its newline from where the last
     search stopped, so a line trickled in many feeds is scanned
     once. *)
  let decode_next t fr =
    match fr with
    | Binary -> decode_binary t.buf ~pos:t.lo ~stop:t.hi
    | Json ->
      let r =
        decode_json t.buf ~pos:t.lo ~from:(t.lo + t.scanned) ~stop:t.hi ()
      in
      (match r with Error Truncated -> t.scanned <- t.hi - t.lo | _ -> ());
      r

  let next t =
    if t.lo = t.hi then Ok None
    else begin
      (match t.fr with
      | Some _ -> ()
      | None ->
        t.fr <-
          (match Bytes.get t.buf t.lo with
          | '{' -> Some Json
          | c when c = magic -> Some Binary
          | _ -> None));
      match t.fr with
      | None -> Error "unknown framing (bad first byte)"
      | Some fr -> (
        match decode_next t fr with
        | Ok (m, n) ->
          consume t n;
          Ok (Some m)
        | Error Truncated -> Ok None
        | Error (Malformed e) -> Error e)
    end
end
