type report = {
  sent : int;
  decisions : int;
  rejected : int;
  completions : int;
  dropped : int;
  profit : float;
  wall_s : float;
  summary : Wire.summary option;
  errors : string list;
}

let connect addr =
  match addr with
  | Daemon.Unix_sock path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  | Daemon.Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (ip, port));
    fd

(* Mutable accounting threaded through the read path. *)
type acc = {
  mutable decisions : int;
  mutable rejected : int;
  mutable completions : int;
  mutable dropped : int;
  mutable profit : float;
  mutable summary : Wire.summary option;
  mutable errors : string list;
  mutable closed : bool;  (** daemon hung up *)
}

let run_stream ?(framing = Wire.Binary) ?(speed = 1.0) ?client ?on_progress ~fd
    ~queries () =
  if not (Float.is_finite speed && speed >= 0.0) then
    invalid_arg "Replay.run: speed must be >= 0";
  Unix.set_nonblock fd;
  let dec = Wire.Decoder.create ~framing () in
  let a =
    {
      decisions = 0;
      rejected = 0;
      completions = 0;
      dropped = 0;
      profit = 0.0;
      summary = None;
      errors = [];
      closed = false;
    }
  in
  let rbuf = Bytes.create 65536 in
  let on_msg = function
    | Wire.Decision { target; _ } ->
      a.decisions <- a.decisions + 1;
      if target = None then a.rejected <- a.rejected + 1
    | Wire.Completion { profit; _ } ->
      a.completions <- a.completions + 1;
      a.profit <- a.profit +. profit
    | Wire.Dropped _ -> a.dropped <- a.dropped + 1
    | Wire.Summary s -> a.summary <- Some s
    | Wire.Error_msg e -> a.errors <- e :: a.errors
    | Wire.Hello _ -> ()
    | Wire.Submit _ | Wire.Eof -> ()  (* daemon shutdown notice *)
  in
  let pump_reads () =
    let again = ref true in
    while !again && not a.closed do
      (match Unix.read fd rbuf 0 (Bytes.length rbuf) with
      | 0 ->
        a.closed <- true;
        again := false
      | n -> Wire.Decoder.feed_subbytes dec rbuf 0 n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        again := false
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
        a.closed <- true;
        again := false);
      let drain = ref true in
      while !drain do
        match Wire.Decoder.next dec with
        | Ok (Some m) -> on_msg m
        | Ok None -> drain := false
        | Error e ->
          a.errors <- ("decode: " ^ e) :: a.errors;
          a.closed <- true;
          drain := false
      done
    done
  in
  (* Blocking send that keeps reading: a daemon pushing decisions
     while we push submissions must not deadlock on two full kernel
     buffers. *)
  let send s =
    let off = ref 0 in
    let len = String.length s in
    while !off < len && not a.closed do
      (match Unix.write_substring fd s !off (len - !off) with
      | n -> off := !off + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (match Unix.select [ fd ] [ fd ] [] 1.0 with
        | r, _, _ -> if r <> [] then pump_reads ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        a.closed <- true);
      pump_reads ()
    done
  in
  let t0 = Obs.now_ns () in
  let wall_s () = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9 in
  Option.iter
    (fun client ->
      send (Wire.encode framing (Wire.Hello { version = Wire.protocol_version; client })))
    client;
  let sent = ref 0 in
  let last_progress = ref 0.0 in
  let progress () =
    match on_progress with
    | Some f when wall_s () -. !last_progress >= 1.0 ->
      last_progress := wall_s ();
      f ~sent:!sent ~completions:a.completions
    | _ -> ()
  in
  Seq.iter
    (fun q ->
      if not a.closed then begin
        (* Open loop: wait out the trace's inter-arrival gap at the
           speed factor, servicing reads meanwhile. *)
        if speed > 0.0 then begin
          let due = q.Query.arrival /. speed /. 1e3 in
          let rec wait () =
            let dt = due -. wall_s () in
            if dt > 0.0 && not a.closed then begin
              (match Unix.select [ fd ] [] [] (Float.min dt 0.25) with
              | r, _, _ -> if r <> [] then pump_reads ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
              wait ()
            end
          in
          wait ()
        end;
        send (Wire.encode framing (Wire.Submit q));
        incr sent;
        progress ()
      end)
    queries;
  if not a.closed then send (Wire.encode framing Wire.Eof);
  (* Read until the summary (the daemon sends it after draining) or
     the connection closes under us. *)
  while a.summary = None && not a.closed do
    (match Unix.select [ fd ] [] [] 1.0 with
    | r, _, _ -> if r <> [] then pump_reads ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    progress ()
  done;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  {
    sent = !sent;
    decisions = a.decisions;
    rejected = a.rejected;
    completions = a.completions;
    dropped = a.dropped;
    profit = a.profit;
    wall_s = wall_s ();
    summary = a.summary;
    errors = List.rev a.errors;
  }

let run ?framing ?speed ?client ?on_progress ~fd ~queries () =
  run_stream ?framing ?speed ?client ?on_progress ~fd
    ~queries:(Array.to_seq queries) ()
