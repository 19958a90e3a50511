#include "graph/serialization.h"

#include <cstring>
#include <iomanip>
#include <set>
#include <sstream>

#include "support/strings.h"

namespace tfe {

namespace {

// ---- low-level framed writer/reader: `<kind> <payload>` tokens with
// length-prefixed strings so arbitrary bytes round-trip. -------------------

void WriteString(std::ostringstream& out, const std::string& text) {
  out << text.size() << ":" << text << " ";
}

class Reader {
 public:
  explicit Reader(const std::string& data) : in_(data), size_(data.size()) {}

  StatusOr<std::string> ReadString() {
    size_t size = 0;
    char colon = 0;
    if (!(in_ >> size) || !in_.get(colon) || colon != ':') {
      return InvalidArgument("Corrupt serialized function (string header)");
    }
    std::string text(size, '\0');
    if (!in_.read(text.data(), static_cast<std::streamsize>(size))) {
      return InvalidArgument("Corrupt serialized function (string body)");
    }
    return text;
  }

  StatusOr<int64_t> ReadInt() {
    int64_t value = 0;
    if (!(in_ >> value)) {
      return InvalidArgument("Corrupt serialized function (int)");
    }
    return value;
  }

  StatusOr<double> ReadDouble() {
    double value = 0;
    if (!(in_ >> value)) {
      return InvalidArgument("Corrupt serialized function (double)");
    }
    return value;
  }

  // An element count: non-negative, and no larger than the bytes left,
  // since every element takes at least one. Sizing a container from an
  // unchecked count would abort on a corrupt input.
  StatusOr<int64_t> ReadCount(const char* what) {
    TFE_ASSIGN_OR_RETURN(int64_t count, ReadInt());
    const std::streamoff pos = in_.tellg();
    const int64_t remaining =
        pos < 0 ? 0 : static_cast<int64_t>(size_) - static_cast<int64_t>(pos);
    if (count < 0 || count > remaining) {
      return InvalidArgument(
          strings::StrCat("Corrupt serialized function (", what, " count)"));
    }
    return count;
  }

  // Whitespace-delimited raw token (attr kind tags).
  StatusOr<std::string> ReadToken() {
    std::string token;
    if (!(in_ >> token)) {
      return InvalidArgument("Corrupt serialized function (token)");
    }
    return token;
  }

 private:
  std::istringstream in_;
  size_t size_;
};

void WriteShape(std::ostringstream& out, const Shape& shape) {
  out << shape.rank() << " ";
  for (int64_t dim : shape.dims()) out << dim << " ";
}

StatusOr<Shape> ReadShape(Reader& reader) {
  TFE_ASSIGN_OR_RETURN(int64_t rank, reader.ReadInt());
  if (rank < 0 || rank > 64) {
    return InvalidArgument("Corrupt serialized function (shape rank)");
  }
  std::vector<int64_t> dims(rank);
  for (int64_t i = 0; i < rank; ++i) {
    TFE_ASSIGN_OR_RETURN(dims[i], reader.ReadInt());
  }
  return Shape(std::move(dims));
}

void WriteTensorPayload(std::ostringstream& out, const Tensor& tensor) {
  out << static_cast<int>(tensor.dtype()) << " ";
  WriteShape(out, tensor.shape());
  size_t bytes =
      static_cast<size_t>(tensor.num_elements()) * DTypeSize(tensor.dtype());
  WriteString(out, std::string(static_cast<const char*>(tensor.raw_data()),
                               bytes));
}

StatusOr<Tensor> ReadTensorPayload(Reader& reader) {
  TFE_ASSIGN_OR_RETURN(int64_t dtype_raw, reader.ReadInt());
  DType dtype = static_cast<DType>(dtype_raw);
  if (DTypeName(dtype) == std::string("invalid") || dtype == DType::kResource) {
    return InvalidArgument("Corrupt serialized function (tensor dtype)");
  }
  TFE_ASSIGN_OR_RETURN(Shape shape, ReadShape(reader));
  TFE_ASSIGN_OR_RETURN(std::string bytes, reader.ReadString());
  size_t expected =
      static_cast<size_t>(shape.num_elements()) * DTypeSize(dtype);
  if (bytes.size() != expected) {
    return InvalidArgument("Corrupt serialized function (tensor payload)");
  }
  Tensor tensor = Tensor::Empty(dtype, shape, nullptr);
  std::memcpy(tensor.raw_mutable_data(), bytes.data(), bytes.size());
  return tensor;
}

Status WriteAttr(std::ostringstream& out, const AttrValue& attr) {
  if (attr.Is<int64_t>()) {
    out << "i " << attr.Get<int64_t>() << " ";
  } else if (attr.Is<double>()) {
    out << "d " << attr.Get<double>() << " ";
  } else if (attr.Is<bool>()) {
    out << "b " << (attr.Get<bool>() ? 1 : 0) << " ";
  } else if (attr.Is<std::string>()) {
    out << "s ";
    WriteString(out, attr.Get<std::string>());
  } else if (attr.Is<DType>()) {
    out << "t " << static_cast<int>(attr.Get<DType>()) << " ";
  } else if (attr.Is<Shape>()) {
    out << "h ";
    WriteShape(out, attr.Get<Shape>());
  } else if (attr.Is<std::vector<int64_t>>()) {
    const auto& values = attr.Get<std::vector<int64_t>>();
    out << "v " << values.size() << " ";
    for (int64_t value : values) out << value << " ";
  } else {
    return FailedPrecondition(
        "Attr is not serializable (host callbacks make graphs "
        "unserializable, as in the paper)");
  }
  return Status::OK();
}

// Reads one attr value and adds it to `attrs` under `name`. Each value is
// constructed in place in the map.
Status ReadAttr(Reader& reader, std::string name, AttrMap& attrs) {
  StatusOr<std::string> token = reader.ReadToken();
  if (!token.ok()) return token.status();
  const std::string& kind = *token;
  const auto add = [&](auto value) {
    attrs.emplace(std::move(name), std::move(value));
    return Status::OK();
  };
  if (kind == "i") {
    TFE_ASSIGN_OR_RETURN(int64_t v, reader.ReadInt());
    return add(v);
  }
  if (kind == "d") {
    TFE_ASSIGN_OR_RETURN(double v, reader.ReadDouble());
    return add(v);
  }
  if (kind == "b") {
    TFE_ASSIGN_OR_RETURN(int64_t v, reader.ReadInt());
    return add(v != 0);
  }
  if (kind == "s") {
    TFE_ASSIGN_OR_RETURN(std::string v, reader.ReadString());
    return add(std::move(v));
  }
  if (kind == "t") {
    TFE_ASSIGN_OR_RETURN(int64_t v, reader.ReadInt());
    return add(static_cast<DType>(v));
  }
  if (kind == "h") {
    TFE_ASSIGN_OR_RETURN(Shape v, ReadShape(reader));
    return add(std::move(v));
  }
  if (kind == "v") {
    TFE_ASSIGN_OR_RETURN(int64_t count, reader.ReadCount("attr list"));
    std::vector<int64_t> values(count);
    for (int64_t i = 0; i < count; ++i) {
      TFE_ASSIGN_OR_RETURN(values[i], reader.ReadInt());
    }
    return add(std::move(values));
  }
  return InvalidArgument("Corrupt serialized function (attr kind)");
}

}  // namespace

StatusOr<std::string> SerializeFunction(const GraphFunction& function) {
  if (!function.IsSerializable()) {
    return FailedPrecondition(
        "Function " + function.name() +
        " contains host callbacks and cannot be serialized (paper §4.7)");
  }
  for (const Capture& capture : function.captures()) {
    if (capture.tensor.is_resource()) {
      return FailedPrecondition(
          "Function " + function.name() +
          " captures variables; save program state with Checkpoint and "
          "rebind on load");
    }
    if (capture.tensor.is_symbolic()) {
      return FailedPrecondition("Nested-trace captures are not serializable");
    }
  }

  std::ostringstream out;
  out << std::setprecision(17);
  out << "tfe_function_v1 ";
  WriteString(out, function.name());
  const Graph& graph = function.graph();
  out << graph.num_nodes() << " ";
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    WriteString(out, node.def->name);
    out << node.inputs.size() << " ";
    for (const Endpoint& e : node.inputs) {
      out << e.node_id << " " << e.index << " ";
    }
    out << node.control_inputs.size() << " ";
    for (int dep : node.control_inputs) out << dep << " ";
    WriteString(out, node.requested_device);
    out << node.attrs.size() << " ";
    for (const auto& [name, attr] : node.attrs) {
      WriteString(out, name);
      TFE_RETURN_IF_ERROR(WriteAttr(out, attr));
    }
    out << node.num_outputs() << " ";
    for (const TypeAndShape& type : node.outputs) {
      out << static_cast<int>(type.dtype) << " ";
      WriteShape(out, type.shape);
    }
    out << (node.constant_value.defined() ? 1 : 0) << " ";
    if (node.constant_value.defined()) {
      WriteTensorPayload(out, node.constant_value);
    }
  }
  out << function.arg_nodes().size() << " ";
  for (int arg : function.arg_nodes()) out << arg << " ";
  out << function.outputs().size() << " ";
  for (const Endpoint& e : function.outputs()) {
    out << e.node_id << " " << e.index << " ";
  }
  out << function.captures().size() << " ";
  for (const Capture& capture : function.captures()) {
    WriteTensorPayload(out, capture.tensor);
  }
  return out.str();
}

StatusOr<std::shared_ptr<GraphFunction>> DeserializeFunction(
    const std::string& data) {
  {
    // Header token is space-terminated, not length-prefixed.
    std::istringstream header(data.substr(0, 16));
    std::string magic;
    header >> magic;
    if (magic != "tfe_function_v1") {
      return InvalidArgument("Not a serialized tfe function");
    }
  }
  // Re-read through the framed reader, skipping the magic.
  Reader body(data.substr(data.find(' ') + 1));
  TFE_ASSIGN_OR_RETURN(std::string name, body.ReadString());
  auto function = std::make_shared<GraphFunction>(name);
  Graph& graph = function->graph();

  TFE_ASSIGN_OR_RETURN(int64_t num_nodes, body.ReadInt());
  for (int64_t id = 0; id < num_nodes; ++id) {
    TFE_ASSIGN_OR_RETURN(std::string op, body.ReadString());
    TFE_ASSIGN_OR_RETURN(int64_t num_inputs, body.ReadCount("input"));
    std::vector<Endpoint> inputs(num_inputs);
    for (auto& e : inputs) {
      TFE_ASSIGN_OR_RETURN(int64_t node_id, body.ReadInt());
      TFE_ASSIGN_OR_RETURN(int64_t index, body.ReadInt());
      e = {static_cast<int>(node_id), static_cast<int>(index)};
    }
    TFE_ASSIGN_OR_RETURN(int64_t num_controls,
                         body.ReadCount("control input"));
    std::vector<int> controls(num_controls);
    for (int& dep : controls) {
      TFE_ASSIGN_OR_RETURN(int64_t value, body.ReadInt());
      dep = static_cast<int>(value);
    }
    TFE_ASSIGN_OR_RETURN(std::string device, body.ReadString());
    TFE_ASSIGN_OR_RETURN(int64_t num_attrs, body.ReadInt());
    AttrMap attrs;
    for (int64_t i = 0; i < num_attrs; ++i) {
      TFE_ASSIGN_OR_RETURN(std::string attr_name, body.ReadString());
      TFE_RETURN_IF_ERROR(ReadAttr(body, std::move(attr_name), attrs));
    }
    TFE_ASSIGN_OR_RETURN(int64_t num_outputs, body.ReadCount("output"));
    std::vector<TypeAndShape> outputs(num_outputs);
    for (auto& type : outputs) {
      TFE_ASSIGN_OR_RETURN(int64_t dtype_raw, body.ReadInt());
      type.dtype = static_cast<DType>(dtype_raw);
      TFE_ASSIGN_OR_RETURN(type.shape, ReadShape(body));
    }
    TFE_ASSIGN_OR_RETURN(Node * node,
                         graph.AddNode(op, std::move(inputs), std::move(attrs),
                                       std::move(outputs), device));
    node->control_inputs = std::move(controls);
    TFE_ASSIGN_OR_RETURN(int64_t has_const, body.ReadInt());
    if (has_const != 0) {
      TFE_ASSIGN_OR_RETURN(node->constant_value, ReadTensorPayload(body));
    }
  }
  TFE_ASSIGN_OR_RETURN(int64_t num_args, body.ReadInt());
  for (int64_t i = 0; i < num_args; ++i) {
    TFE_ASSIGN_OR_RETURN(int64_t arg, body.ReadInt());
    function->arg_nodes().push_back(static_cast<int>(arg));
  }
  TFE_ASSIGN_OR_RETURN(int64_t num_outputs, body.ReadCount("output"));
  for (int64_t i = 0; i < num_outputs; ++i) {
    TFE_ASSIGN_OR_RETURN(int64_t node_id, body.ReadInt());
    TFE_ASSIGN_OR_RETURN(int64_t index, body.ReadInt());
    function->outputs().push_back(
        {static_cast<int>(node_id), static_cast<int>(index)});
  }
  TFE_ASSIGN_OR_RETURN(int64_t num_captures, body.ReadInt());
  for (int64_t i = 0; i < num_captures; ++i) {
    TFE_ASSIGN_OR_RETURN(Tensor capture, ReadTensorPayload(body));
    function->captures().push_back(Capture{std::move(capture)});
  }
  return function;
}

StatusOr<std::string> SerializeFunctionBundle(const GraphFunction& function,
                                              const FunctionLibrary& library) {
  // Transitive closure, main function first, depth-first discovery order.
  std::vector<const GraphFunction*> ordered;
  std::vector<std::shared_ptr<GraphFunction>> owned;  // keep deps alive
  std::set<std::string> seen = {function.name()};
  ordered.push_back(&function);
  for (size_t i = 0; i < ordered.size(); ++i) {
    for (const std::string& name : ordered[i]->ReferencedFunctions()) {
      if (!seen.insert(name).second) continue;
      TFE_ASSIGN_OR_RETURN(std::shared_ptr<GraphFunction> dep,
                           library.Find(name));
      owned.push_back(dep);
      ordered.push_back(owned.back().get());
    }
  }
  std::ostringstream out;
  out << "tfe_bundle_v1 " << ordered.size() << " ";
  for (const GraphFunction* fn : ordered) {
    TFE_ASSIGN_OR_RETURN(std::string piece, SerializeFunction(*fn));
    WriteString(out, piece);
  }
  return out.str();
}

StatusOr<std::vector<std::shared_ptr<GraphFunction>>> DeserializeFunctionBundle(
    const std::string& data) {
  std::istringstream header(data);
  std::string magic;
  size_t count = 0;
  if (!(header >> magic >> count) || magic != "tfe_bundle_v1") {
    return InvalidArgument("Not a serialized tfe function bundle");
  }
  // Re-read through the framed reader from after "tfe_bundle_v1 <n> ".
  size_t body_offset = data.find(' ');
  body_offset = data.find(' ', body_offset + 1);
  if (body_offset == std::string::npos) {
    return InvalidArgument("Corrupt function bundle header");
  }
  Reader reader(data.substr(body_offset + 1));
  std::vector<std::shared_ptr<GraphFunction>> functions;
  for (size_t i = 0; i < count; ++i) {
    TFE_ASSIGN_OR_RETURN(std::string piece, reader.ReadString());
    TFE_ASSIGN_OR_RETURN(std::shared_ptr<GraphFunction> fn,
                         DeserializeFunction(piece));
    functions.push_back(std::move(fn));
  }
  if (functions.empty()) {
    return InvalidArgument("Empty function bundle");
  }
  return functions;
}

}  // namespace tfe
