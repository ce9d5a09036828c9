#!/bin/sh
# Layering gate: swm, the OI toolkit and the client-app library reach the
# server only through an xlib::Display.  Fails on any `server_->` there, and
# on any `server()` except the panner's connection line, which opens its
# ClientApp on swm's server the way XOpenDisplay names a display.
#
# Usage: tools/check_layering.sh [source-root]
set -eu

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$ROOT"

PANNER_CONNECTION='^src/swm/panner\.cc:[0-9]*:  app_ = std::make_unique<xlib::ClientApp>(&wm_->display()\.server(), config);$'
hits=$(grep -rnF -e 'server_->' -e 'server()' src/swm src/oi src/xlib/client_app.cc |
         grep -v "$PANNER_CONNECTION" || true)
if [ -n "$hits" ]; then
  echo "check_layering: these lines reach past their Display into the server:" >&2
  echo "$hits" >&2
  exit 1
fi
echo "check_layering: src/swm, src/oi and src/xlib/client_app.cc go through their Display"
