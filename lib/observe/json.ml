(* The JSON module lives in everest_telemetry; this alias keeps the
   [Everest_observe.Json] path that existing callers name. *)
include Everest_telemetry.Json
