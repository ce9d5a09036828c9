#include "src/xproto/error.h"

#include <sstream>

namespace xproto {

std::string ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadWindow:
      return "BadWindow";
    case ErrorCode::kBadMatch:
      return "BadMatch";
    case ErrorCode::kBadValue:
      return "BadValue";
    case ErrorCode::kBadAtom:
      return "BadAtom";
    case ErrorCode::kBadAccess:
      return "BadAccess";
    case ErrorCode::kBadImplementation:
      return "BadImplementation";
    case ErrorCode::kBadRequest:
      return "BadRequest";
    case ErrorCode::kBadLength:
      return "BadLength";
    case ErrorCode::kBadIDChoice:
      return "BadIDChoice";
  }
  return "BadImplementation";
}

std::string RequestCodeName(RequestCode code) {
  switch (code) {
    case RequestCode::kNone:
      return "None";
    case RequestCode::kCreateWindow:
      return "CreateWindow";
    case RequestCode::kDestroyWindow:
      return "DestroyWindow";
    case RequestCode::kMapWindow:
      return "MapWindow";
    case RequestCode::kUnmapWindow:
      return "UnmapWindow";
    case RequestCode::kReparentWindow:
      return "ReparentWindow";
    case RequestCode::kConfigureWindow:
      return "ConfigureWindow";
    case RequestCode::kSelectInput:
      return "SelectInput";
    case RequestCode::kChangeSaveSet:
      return "ChangeSaveSet";
    case RequestCode::kChangeProperty:
      return "ChangeProperty";
    case RequestCode::kDeleteProperty:
      return "DeleteProperty";
    case RequestCode::kSendEvent:
      return "SendEvent";
    case RequestCode::kSetInputFocus:
      return "SetInputFocus";
    case RequestCode::kGrabButton:
      return "GrabButton";
    case RequestCode::kUngrabButton:
      return "UngrabButton";
    case RequestCode::kShapeOp:
      return "ShapeOp";
    case RequestCode::kSetWindowBackground:
      return "SetWindowBackground";
    case RequestCode::kSetCursor:
      return "SetCursor";
    case RequestCode::kClearWindow:
      return "ClearWindow";
    case RequestCode::kDraw:
      return "Draw";
    case RequestCode::kGetWindowAttributes:
      return "GetWindowAttributes";
    case RequestCode::kGetGeometry:
      return "GetGeometry";
    case RequestCode::kQueryTree:
      return "QueryTree";
    case RequestCode::kInternAtom:
      return "InternAtom";
    case RequestCode::kGetAtomName:
      return "GetAtomName";
    case RequestCode::kGetProperty:
      return "GetProperty";
    case RequestCode::kTranslateCoordinates:
      return "TranslateCoordinates";
    case RequestCode::kQueryScreens:
      return "QueryScreens";
    case RequestCode::kGetIdRange:
      return "GetIdRange";
    case RequestCode::kQueryPointer:
      return "QueryPointer";
    case RequestCode::kGetInputFocus:
      return "GetInputFocus";
    case RequestCode::kShapeGetRectangles:
      return "ShapeGetRectangles";
    case RequestCode::kWarpPointer:
      return "WarpPointer";
  }
  return "None";
}

std::string ErrorText(const XError& error) {
  std::ostringstream out;
  out << ErrorCodeName(error.code) << " on " << RequestCodeName(error.request)
      << " (resource " << error.resource_id << ", seq " << error.sequence << ")";
  return out.str();
}

}  // namespace xproto
