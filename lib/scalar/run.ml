(* The one run loop of the scalar engines, which each engine's [run]
   passes its own operations ({!Interp}: [~settle:ignore ~tick:step]):
   reset, then per cycle drive the input streams (shorter streams are
   padded with false), settle, read the outputs and tick; one output row
   per cycle.  Each stream is walked once, so a run is linear in
   [cycles]. *)
let loop ~reset ~set_input ~settle ~outputs ~tick t ~inputs ~cycles =
  reset t;
  let streams = ref inputs and rows = ref [] in
  for _ = 1 to cycles do
    streams :=
      List.map
        (fun (name, vals) ->
          let b, rest = match vals with b :: rest -> (b, rest) | [] -> (false, []) in
          set_input t name b;
          (name, rest))
        !streams;
    settle t;
    rows := outputs t :: !rows;
    tick t
  done;
  List.rev !rows
